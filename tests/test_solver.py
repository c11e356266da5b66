import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import flat_problem, one_coordinate_solution, random_band_limited
from n1ma import pointwise, solver
from n1ma.config import parse_config
from n1ma.eigencone import hat_transform
from n1ma.errors import DomainError
from n1ma.expressions import compile_expression
from n1ma.grid import complex_hessian, grid_coordinates
from n1ma.solver import (
    SolveResult,
    SolverOptions,
    TorusProblem,
    alpha_field,
    diagnostics,
    linearized_apply,
    manufactured_problem,
    newton_solve,
    residual,
)

SHAPE = (16, 16, 16)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class LeftTheCone(Exception):
    """A solve ended with the failure ``"cone-exit"``."""


def solved(problem):
    """``newton_solve(problem)``; raises LeftTheCone on a cone exit, so that
    an xfail can name that failure and no other."""
    result = newton_solve(problem)
    if result.failure == "cone-exit":
        raise LeftTheCone(f"levels {result.levels}")
    return result


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tolerance=float("nan")),
            dict(tolerance=float("inf")),
            dict(tolerance=0.0),
            dict(positivity_floor=float("nan")),
            dict(tolerance=-1e-10),
            dict(max_iterations=0),
            dict(max_iterations=-3),
            dict(max_iterations=float("nan")),
            dict(positivity_floor=0.0),
            dict(positivity_floor=float("inf")),
            dict(max_iterations=2.5),
            dict(tolerance=None),
            dict(positivity_floor="1e-6"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(DomainError):
            SolverOptions(**kwargs)

    def test_accepts_smallest_counts(self):
        SolverOptions(max_iterations=1)


class TestProblemValidation:
    def test_rejects_indefinite_gamma(self):
        with pytest.raises(DomainError):
            TorusProblem(gamma=np.diag([1.0, 1.0, -1.0]), f=np.ones(SHAPE))

    def test_rejects_nonpositive_density(self):
        f = np.ones(SHAPE)
        f[0, 0, 0] = 0.0
        with pytest.raises(DomainError):
            TorusProblem(gamma=np.eye(3), f=f)

    def test_rejects_asymmetric_gamma(self):
        gamma = np.broadcast_to(np.eye(3), SHAPE + (3, 3)).copy()
        gamma[..., 0, 1] = 0.5
        with pytest.raises(DomainError):
            TorusProblem(gamma=gamma, f=np.ones(SHAPE))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_symmetry_is_checked_at_every_point_in_both_orders(self, entry):
        # np.allclose(a, b) asks |a - b| <= 1e-8 + 1e-5 |b|: with b = 2 and
        # a = 2 + d only the order (a, b) fails, so each order must be asked
        gamma = np.broadcast_to(3.0 * np.eye(3), SHAPE + (3, 3)).copy()
        gamma[..., 0, 1] = gamma[..., 1, 0] = 2.0
        point = gamma[3, 4, 5]
        point[entry] += 1e-9
        TorusProblem(gamma=gamma, f=np.ones(SHAPE))  # inside the tolerance
        # d = 2.0010001e-5 lies between 1e-8 + 1e-5 * 2 and 1e-8 + 1e-5 (2 + d)
        point[entry] = 2.0 + 2.0010001e-5
        assert np.allclose(point[entry[::-1]], point[entry])
        assert not np.allclose(point[entry], point[entry[::-1]])
        with pytest.raises(DomainError):
            TorusProblem(gamma=gamma, f=np.ones(SHAPE))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_density(self, bad):
        f = np.ones(SHAPE)
        f[1, 2, 3] = bad
        with pytest.raises(DomainError):
            TorusProblem(gamma=np.eye(3), f=f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_gamma(self, bad):
        gamma = np.broadcast_to(np.eye(3), SHAPE + (3, 3)).copy()
        gamma[1, 2, 3, 0, 0] = bad
        with pytest.raises(DomainError):
            TorusProblem(gamma=gamma, f=np.ones(SHAPE))

    def test_with_density_validates_density_only(self):
        problem = flat_problem(SHAPE)
        with pytest.raises(DomainError):
            problem.with_density(np.full(SHAPE, np.nan))
        with pytest.raises(DomainError):
            problem.with_density(np.ones((8, 8, 8)))
        staged = problem.with_density(np.full(SHAPE, 2.0))
        assert staged.gamma is problem.gamma
        assert staged.gamma_eig_range == problem.gamma_eig_range
        assert np.all(staged.f == 2.0) and np.all(problem.f == 1.0)

    def test_gamma_stored_component_major(self):
        gamma = np.broadcast_to(np.eye(3), SHAPE + (3, 3)).copy()
        gamma[..., 0, 1] = gamma[..., 1, 0] = 0.1
        problem = TorusProblem(gamma=gamma, f=np.ones(SHAPE))
        assert problem.gamma.shape == SHAPE + (3, 3)
        assert np.array_equal(problem.gamma, gamma)
        assert np.moveaxis(problem.gamma, (-2, -1), (0, 1)).flags.c_contiguous

    def test_constant_gamma_allocates_no_grid_buffer(self):
        shape = (32, 32, 32)
        f = np.ones(shape)
        g = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
        tracemalloc.start()
        try:
            problem = TorusProblem(gamma=g, f=f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the density check makes boolean grids (f.nbytes / 8); one float
        # grid, let alone n^2 of them, would reach f.nbytes
        assert peak < f.nbytes / 2
        assert problem.gamma.shape == shape + (3, 3)
        assert problem.gamma.strides[:3] == (0, 0, 0)
        assert np.array_equal(problem.gamma[5, 6, 7], g)
        assert problem.gamma_eig_range == tuple(float(e) for e in np.linalg.eigvalsh(g)[[0, -1]])
        g[0, 0] = 9.0  # the stored view does not alias the caller's matrix
        assert problem.gamma[0, 0, 0, 0, 0] == 2.0
        # config entries free of x1..xn give one matrix too
        family = parse_config(str(CONFIGS / "family.ini"))
        assert family.start.gamma.strides[:3] == (0, 0, 0)
        assert np.array_equal(family.start.compact_gamma, np.eye(3))


class TestAlphaField:
    def test_zero_field_returns_background(self):
        problem = flat_problem(SHAPE)
        alpha = alpha_field(problem, np.zeros(SHAPE))
        assert np.allclose(alpha, np.eye(3))

    def test_eigenvalues_are_shifted_hat_transform(self):
        # with identity background: eig(alpha) = 1 + hat(eig(H)) / (n-1)
        problem = flat_problem(SHAPE)
        rng = np.random.default_rng(0)
        u = 0.3 * random_band_limited(rng, SHAPE)
        h = complex_hessian(u)
        alpha = alpha_field(problem, u)
        got = np.sort(np.linalg.eigvalsh(alpha), axis=-1)
        expected = np.sort(1.0 + hat_transform(np.linalg.eigvalsh(h)) / 2.0, axis=-1)
        assert np.abs(got - expected).max() <= 1e-12

    def test_difference_independent_of_base_point(self):
        problem = flat_problem(SHAPE)
        rng = np.random.default_rng(1)
        u = random_band_limited(rng, SHAPE)
        v = random_band_limited(rng, SHAPE)
        d1 = alpha_field(problem, u + v) - alpha_field(problem, u)
        d2 = alpha_field(problem, v) - alpha_field(problem, np.zeros(SHAPE))
        assert np.abs(d1 - d2).max() <= 1e-12


class TestResidual:
    def test_flat_solution(self):
        problem = flat_problem(SHAPE)
        r = residual(problem, np.zeros(SHAPE), 0.0)
        assert np.abs(r).max() == 0.0

    def test_manufactured_zero_residual(self):
        problem, u_star = manufactured_problem(0.4, (32, 32, 32))
        r = residual(problem, u_star, 0.0)
        assert np.abs(r).max() <= 1e-12

    def test_constant_density_shift(self):
        problem = flat_problem(SHAPE).with_density(np.full(SHAPE, 2.0))
        r = residual(problem, np.zeros(SHAPE), 0.0)
        assert np.allclose(r, -np.log(2.0))

    def test_positivity_error(self):
        # a u outside the cone is bad input, not a numerical outcome
        problem = flat_problem(SHAPE)
        x1, _, _ = grid_coordinates(SHAPE)
        with pytest.raises(DomainError, match="outside the cone"):
            residual(problem, 10.0 * np.cos(x1), 0.0)
        with pytest.raises(DomainError, match="outside the cone"):
            linearized_apply(problem, 10.0 * np.cos(x1), np.ones(SHAPE))

    def test_gauge_invariance(self):
        problem, u_star = manufactured_problem(0.4, (32, 32, 32))
        base = residual(problem, u_star, 0.1)
        # an exactly representable shift of the zero field is bitwise invariant
        flat = flat_problem(SHAPE)
        assert np.array_equal(
            residual(flat, np.zeros(SHAPE), 0.0),
            residual(flat, np.full(SHAPE, 4.5), 0.0),
        )
        # for generic data the invariance holds to rounding of u + const
        shifted = residual(problem, u_star + 3.7, 0.1)
        assert np.abs(base - shifted).max() <= 1e-12


class TestLinearization:
    def test_annihilates_constants(self):
        problem = flat_problem(SHAPE)
        out = linearized_apply(problem, np.zeros(SHAPE), np.full(SHAPE, 2.0))
        assert np.abs(out).max() <= 1e-14

    def test_flat_symbol_on_single_mode(self):
        problem = flat_problem(SHAPE)
        x1, _, _ = grid_coordinates(SHAPE)
        out = linearized_apply(problem, np.zeros(SHAPE), np.cos(x1))
        assert np.allclose(out, -0.25 * np.cos(x1), atol=1e-13)

    def test_directional_finite_difference(self):
        problem, u_star = manufactured_problem(0.4, SHAPE)
        rng = np.random.default_rng(2)
        u = 0.5 * u_star
        v = 0.2 * random_band_limited(rng, SHAPE)
        exact = linearized_apply(problem, u, v)
        errors = []
        for h in (1e-3, 5e-4):
            fd = (residual(problem, u + h * v, 0.0) - residual(problem, u - h * v, 0.0)) / (2 * h)
            errors.append(np.abs(fd - exact).max())
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] <= 1e-5

    def test_ellipticity_of_coefficient_tensor(self):
        from n1ma.solver import _linearization_tensor, _log_det_above

        problem, u_star = manufactured_problem(0.4, SHAPE)
        alpha = alpha_field(problem, u_star)
        theta = _linearization_tensor(_log_det_above(alpha, 0.0)[0])
        theta_eigs = np.linalg.eigvalsh(theta)
        assert theta_eigs[..., 0].min() > 0
        # eig(theta) = hat(1 / eig(alpha)) / (n - 1): positive wherever alpha
        # is, which is why the Newton loop makes no ellipticity check
        expected = np.sort(hat_transform(1.0 / np.linalg.eigvalsh(alpha)) / (problem.n - 1), axis=-1)
        assert np.abs(theta_eigs - expected).max() <= 1e-12


class TestNewtonSolve:
    def test_flat_problem_immediate(self, flat_solve):
        problem, result = flat_solve
        assert result.converged and result.iterations == 0
        assert result.c == pytest.approx(1.0, abs=0)
        assert np.abs(result.u).max() == 0.0
        assert result.osc == 0.0

    def test_manufactured_recovery(self, manufactured_solve):
        problem, u_star, result = manufactured_solve
        assert result.converged
        assert result.final_residual <= 1e-10
        assert np.abs(result.u - u_star).max() <= 1e-8
        assert abs(result.c - 1.0) <= 1e-8

    def test_quadratic_tail(self, manufactured_solve):
        _, _, result = manufactured_solve
        hist = [r for r in result.residual_history if r > 1e-11]
        assert len(hist) >= 3
        for a, b in list(zip(hist, hist[1:]))[-2:]:
            assert b <= a**1.9

    def test_sup_normalization_exact(self, manufactured_solve):
        _, _, result = manufactured_solve
        assert result.u.max() == 0.0

    # tracemalloc peaks in grid fields of the manufactured solve before
    # the loop handed its alpha to the diagnostics: on 32^3 the 16^3
    # level's GMRES basis (201 vectors) sets it, on 64^3 the fine level's
    # cone test
    SOLVE_PEAKS = {(32, 32, 32): 31.7, (64, 64, 64): 20.4}

    @pytest.mark.parametrize("shape", list(SOLVE_PEAKS))
    def test_solve_peak_memory(self, shape):
        problem, _ = manufactured_problem(0.4, shape)
        newton_solve(manufactured_problem(0.4, (16, 16, 16))[0])  # first-use imports
        tracemalloc.start()
        try:
            result = newton_solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak <= self.SOLVE_PEAKS[shape] * problem.f.nbytes

    def test_min_alpha_above_floor(self, manufactured_solve):
        problem, _, result = manufactured_solve
        assert result.min_alpha_eig >= problem.positivity_floor

    def test_density_scaling(self, manufactured_solve):
        problem, _, result = manufactured_solve
        for k in (2.0, 0.25):
            scaled = newton_solve(problem.with_density(k * problem.f), u0=result.u)
            assert np.abs(scaled.u - result.u).max() <= 1e-9
            assert scaled.c * k == pytest.approx(result.c, rel=1e-9)

    def test_grid_refinement_consistency(self, manufactured_solve):
        _, _, coarse = manufactured_solve
        problem64, u_star64 = manufactured_problem(0.4, (64, 64, 64))
        # a cold solve, so that the 64^3 solution does not come from the
        # 16^3 level it is compared against
        fine = newton_solve(problem64, u0=np.zeros(problem64.shape))
        assert fine.converged
        assert np.abs(fine.u[::2, ::2, ::2] - coarse.u).max() <= 1e-8
        assert abs(fine.c - coarse.c) <= 1e-8

    def test_stiff_density_converges_from_zero(self):
        x1, _, _ = grid_coordinates(SHAPE)
        problem = TorusProblem(
            gamma=np.eye(3),
            f=np.exp(3.0 * np.cos(x1)),
            options=SolverOptions(max_iterations=120),
        )
        result = newton_solve(problem)
        assert result.converged
        assert result.levels == ((SHAPE, 6),)
        assert result.min_alpha_eig > 0

    def test_failed_start_gives_the_solve_without_it(self, flat_solve):
        problem, cold = flat_solve
        x1, _, _ = grid_coordinates(SHAPE)
        result = newton_solve(problem, u0=10.0 * np.cos(x1))
        assert np.array_equal(result.u, cold.u) and result.c == cold.c
        assert result.residual_history == cold.residual_history
        # the abandoned start left the cone before a step
        assert result.levels[0] == (SHAPE, 0)
        assert result.levels[1:] == cold.levels

    def test_start_off_the_grid_rejected(self):
        problem = flat_problem((16, 16, 16))
        with pytest.raises(DomainError, match=r"\(8, 8, 8\).*\(16, 16, 16\)"):
            newton_solve(problem, u0=np.zeros((8, 8, 8)))

    def test_cone_exit_from_zero_is_a_failure_result(self):
        x1, _, _ = grid_coordinates(SHAPE)
        f = np.exp(3.0 * np.cos(x1))
        _, _, least = one_coordinate_solution(f, 3)
        assert least == pytest.approx(0.135, abs=1e-3)
        problem = TorusProblem(gamma=np.eye(3), f=f, options=SolverOptions(positivity_floor=0.3))
        result = newton_solve(problem)
        assert (result.converged, result.failure) == (False, "cone-exit")
        # u is the last iterate above the floor (up to the rounding of its
        # shift to sup u = 0), with its own diagnostics
        assert result.min_alpha_eig >= problem.positivity_floor - 1e-12
        assert result.u.max() == 0.0

    def test_start_outside_the_cone_is_a_failure_result(self):
        # a floor above the least eigenvalue of Gamma puts u = 0 outside
        result = newton_solve(flat_problem(SHAPE, SolverOptions(positivity_floor=2.0)))
        assert result.failure == "cone-exit"
        assert result.levels == ((SHAPE, 0),)
        assert math.isnan(result.c)
        assert result.residual_history == () and result.iterations == 0

    def test_higher_complex_dimension(self):
        shape = (10, 10, 10, 10)
        xs = grid_coordinates(shape)
        gamma = np.broadcast_to(np.eye(4), shape + (4, 4)).copy()
        gamma[..., 0, 0] = 1.2 + 0.1 * np.cos(xs[2])
        problem = TorusProblem(
            gamma=gamma,
            f=np.exp(0.3 * np.cos(xs[0]) + 0.2 * np.cos(xs[1]) * np.cos(xs[3])),
        )
        result = newton_solve(problem)
        assert result.converged
        assert result.final_residual <= 1e-10
        from n1ma.harness import audit_solve

        assert audit_solve(problem, result).all_ok

    def test_converged_is_derived_from_failure(self):
        assert "converged" not in {f.name for f in dataclasses.fields(SolveResult)}
        bare = dict(u=np.zeros(SHAPE), c=1.0, residual_history=(0.0,), iterations=0)
        assert SolveResult(**bare).converged
        assert not SolveResult(**bare, failure="krylov").converged

    def test_nonconvergence_reports_history(self):
        x1, _, x3 = grid_coordinates(SHAPE)
        problem = TorusProblem(
            gamma=np.eye(3),
            f=np.exp(0.8 * np.cos(x1) * np.cos(x3)),
            options=SolverOptions(max_iterations=1),
        )
        result = newton_solve(problem)
        assert not result.converged
        assert result.failure == "max-iterations"
        assert len(result.residual_history) >= 1


class TestOneCoordinateOracle:
    """``f = exp(a cos x1)`` with Gamma = I against the exact grid solution;
    the least eigenvalue of the solution's alpha falls with a and crosses the
    1e-6 positivity floor between a = 15 and a = 16."""

    @pytest.mark.parametrize(
        "a",
        [2, 4, 8, 12]
        + [
            pytest.param(
                a,
                marks=pytest.mark.xfail(
                    raises=LeftTheCone,
                    strict=True,
                    reason="the line search from u = 0 leaves the cone although the "
                    "solution's least eigenvalue is above the floor (ROADMAP item 3)",
                ),
            )
            for a in (13, 14, 15)
        ],
    )
    def test_solvable_density_matches_the_oracle(self, a):
        x1, _, _ = grid_coordinates(SHAPE)
        f = np.exp(a * np.cos(x1))
        u, c, least = one_coordinate_solution(f, 3)
        problem = TorusProblem(gamma=np.eye(3), f=f)
        assert least > problem.positivity_floor
        result = solved(problem)
        assert result.converged
        assert result.c == pytest.approx(c, rel=1e-10, abs=0.0)
        assert np.abs(result.u - u).max() <= 1e-9

    def test_abs_density_matches_the_oracle(self):
        # a cusp of f at x1 = 0, written with the expression reader's abs
        f = compile_expression("(abs(sin(x1/2)) + 1e-3)^-0.8", 3)(list(grid_coordinates(SHAPE)))
        u, c, least = one_coordinate_solution(f, 3)
        problem = TorusProblem(gamma=np.eye(3), f=f)
        assert least > problem.positivity_floor
        result = solved(problem)
        assert result.converged
        assert result.c == pytest.approx(c, rel=1e-10, abs=0.0)
        assert np.abs(result.u - u).max() <= 1e-9

    @pytest.mark.parametrize("a", [16, 17])
    def test_density_below_the_floor_leaves_the_cone(self, a):
        x1, _, _ = grid_coordinates(SHAPE)
        f = np.exp(a * np.cos(x1))
        _, _, least = one_coordinate_solution(f, 3)
        problem = TorusProblem(gamma=np.eye(3), f=f)
        assert least < problem.positivity_floor
        assert newton_solve(problem).failure == "cone-exit"


class TestConeExit:
    """A loop that leaves the cone returns the failure ``"cone-exit"``, and
    ``newton_solve`` returns it as a SolveResult with the steps of every
    loop."""

    def density(self):
        x1, _, _ = grid_coordinates(SHAPE)
        return TorusProblem(gamma=np.eye(3), f=np.exp(16.0 * np.cos(x1)))

    def test_newton_loop_returns_the_cone_exit(self):
        outcome = solver._newton_loop(self.density(), np.zeros(SHAPE))
        assert outcome.failure == "cone-exit" and outcome.steps >= 1
        # the loop went on stepping: its alpha is rebuilt from the tested field
        assert outcome.alpha is None and outcome.tested is not None

    def test_initial_iterate_outside_the_cone(self):
        x1, _, _ = grid_coordinates(SHAPE)
        outcome = solver._newton_loop(self.density(), 10.0 * np.cos(x1))
        assert (outcome.history, outcome.steps, outcome.failure) == ([], 0, "cone-exit")
        assert outcome.tested is outcome.u and outcome.alpha is None

    def test_failure_carries_the_levels(self):
        problem = self.density()
        result = newton_solve(problem)
        assert (result.converged, result.failure) == (False, "cone-exit")
        ((shape, k),) = result.levels
        assert shape == SHAPE and k >= 1
        assert result.iterations == k and len(result.residual_history) == k + 1
        # u, c and the diagnostics are those of the last iterate in the cone
        assert result.min_alpha_eig >= problem.positivity_floor - 1e-12
        # (alpha is near-singular at the floor, so det loses digits)
        logdet = np.log(np.linalg.det(alpha_field(problem, result.u)))
        assert math.log(result.c) == pytest.approx(float((logdet - np.log(problem.f)).mean()), rel=1e-9)
        assert np.abs(residual(problem, result.u, math.log(result.c))).max() == pytest.approx(
            result.final_residual, rel=1e-6
        )

    def test_margin_is_that_of_the_tested_iterate(self):
        # min_alpha_eig is read from the alpha that passed the floor, not
        # from one rebuilt from the sup-shifted u
        problem = self.density()
        result = newton_solve(problem)
        assert result.failure == "cone-exit" and result.iterations >= 1
        assert result.min_alpha_eig >= problem.positivity_floor

    def test_every_tested_iterate_reports_its_floor(self, solve_suite):
        # for a loop that accepted an iterate, the reported least eigenvalue
        # clears the floor up to the rounding of a Cholesky test
        x1, _, _ = grid_coordinates(SHAPE)
        cone_exits = [TorusProblem(gamma=np.eye(3), f=np.exp(a * np.cos(x1))) for a in (16, 17, 17.2, 40)]
        for problem, result in solve_suite + [(p, newton_solve(p)) for p in cone_exits]:
            assert result.failure in (None, "cone-exit") and result.residual_history
            magnitude = np.abs(alpha_field(problem, result.u)).max()
            slack = pointwise.ROUNDING * problem.n**3 * np.finfo(float).eps * magnitude
            assert result.min_alpha_eig >= problem.positivity_floor - slack

    def test_failure_after_an_abandoned_start(self):
        x1, _, _ = grid_coordinates(SHAPE)
        result = newton_solve(self.density(), u0=10.0 * np.cos(x1))
        assert result.failure == "cone-exit"
        assert result.levels[0] == (SHAPE, 0)
        assert len(result.levels) == 2


class TestGridLadder:
    @pytest.mark.parametrize(
        "shape, coarser",
        [
            ((64,) * 3, (32,) * 3),
            ((32, 32, 24), (16, 16, 12)),
            ((16,) * 3, None),
            ((16, 12, 10), None),
            ((12,) * 4, None),
            ((20,) * 3, (10,) * 3),
        ],
    )
    def test_ladder_rule(self, shape, coarser):
        assert solver._coarser_shape(shape) == coarser

    def test_prolongation_interpolates(self):
        rng = np.random.default_rng(7)
        u = random_band_limited(rng, SHAPE, max_mode=3)
        fine = solver._prolonged(u, (32, 32, 32))
        assert np.abs(fine[::2, ::2, ::2] - u).max() <= 1e-14
        # exact for a band-limited field: the fine samples of the same modes
        x1, x2, x3 = grid_coordinates((32, 32, 32))
        c1, c2, c3 = grid_coordinates(SHAPE)
        trig = np.cos(3 * c1 - c2) + np.sin(2 * c3)
        assert np.abs(solver._prolonged(trig, (32, 32, 32)) - np.cos(3 * x1 - x2) - np.sin(2 * x3)).max() <= 1e-14

    def test_levels_of_a_ladder_solve(self, manufactured_solve):
        _, _, result = manufactured_solve
        assert result.levels == ((SHAPE, 4), ((32, 32, 32), 0))
        # history and iterations cover every level, coarse first
        assert result.iterations == 4 and len(result.residual_history) == 4 + 1 + 1

    def test_cold_fallback_when_prolonged_start_leaves_the_cone(self, monkeypatch):
        problem, _ = manufactured_problem(0.4, (32, 32, 32))
        cold = newton_solve(problem, u0=np.zeros(problem.shape))
        x1, _, _ = grid_coordinates(problem.shape)
        monkeypatch.setattr(solver, "_prolonged", lambda u, shape: 10.0 * np.cos(x1))
        result = newton_solve(problem)
        assert result.converged
        assert np.array_equal(result.u, cold.u) and result.c == cold.c
        assert result.residual_history == cold.residual_history
        assert result.iterations == cold.iterations
        # the abandoned level is reported: it left the cone before a step
        assert result.levels == ((SHAPE, 4), ((32, 32, 32), 0), ((32, 32, 32), cold.iterations))

    def test_oscillating_config_matches_a_cold_start(self):
        problem = parse_config(str(CONFIGS / "oscillating.ini"))
        assert solver._coarser_shape(problem.shape) is not None
        ladder = newton_solve(problem)
        cold = newton_solve(problem, u0=np.zeros(problem.shape))
        assert ladder.converged and cold.converged
        assert abs(ladder.c - cold.c) <= 1e-9
        assert np.abs(ladder.u - cold.u).max() <= 1e-9


class TestDiagnostics:
    def test_zero_field(self, flat_solve):
        problem, result = flat_solve
        assert result.grad_sup == 0.0 and result.hess_sup == 0.0

    def test_single_mode_closed_form(self):
        problem = flat_problem(SHAPE)
        x1, _, _ = grid_coordinates(SHAPE)
        a = 0.5
        u = a * np.cos(x1)
        u = u - u.max()
        result = diagnostics(problem, SolveResult(
            u=u, c=1.0, residual_history=(0.0,), iterations=0,
        ), alpha_field(problem, u))
        assert result.grad_sup == pytest.approx(a / 2, rel=1e-12)
        assert result.hess_sup == pytest.approx(a / 4, rel=1e-12)
        assert result.osc == pytest.approx(2 * a, rel=1e-12)

    def test_manufactured_matches_analytic(self, manufactured_solve):
        problem, u_star, result = manufactured_solve
        x1, x2, x3 = grid_coordinates(problem.shape)
        a = 0.4
        grad2 = (a * np.sin(x1)) ** 2 + (a * np.sin(x2) * np.cos(x3)) ** 2 + (
            a * np.cos(x2) * np.sin(x3)
        ) ** 2
        assert result.grad_sup == pytest.approx(np.sqrt(grad2.max()) / 2, abs=1e-6)
