import dataclasses

import numpy as np
import pytest

from conftest import acceptance_family
from n1ma import harness, solver
from n1ma.errors import DomainError
from n1ma.grid import grid_coordinates, random_band_limited
from n1ma.harness import (
    DeclaredBounds,
    FamilySpec,
    amgm_pointwise_audit,
    audit_solve,
    c2_ratio,
    c_upper_bound,
    domination_check,
    family_run,
    mass_identity_check,
)
from n1ma.solver import SolveResult, TorusProblem, diagnostics, flat_problem, newton_solve

SHAPE = (16, 16, 16)


class TestCUpperBound:
    def test_flat_equality(self, flat_solve):
        problem, result = flat_solve
        bound, ok = c_upper_bound(problem, result)
        assert ok
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert abs(result.c - bound) <= 1e-9

    def test_constant_density_equality(self):
        # f = 2: bound (1/2^(1/3))^3 = 1/2 and c = 1/2, equality again
        problem = flat_problem(SHAPE).with_density(np.full(SHAPE, 2.0))
        result = newton_solve(problem)
        bound, ok = c_upper_bound(problem, result)
        assert ok
        assert bound == pytest.approx(0.5, rel=1e-12)
        assert result.c == pytest.approx(0.5, rel=1e-12)

    def test_manufactured_strict(self, manufactured_solve):
        problem, _, result = manufactured_solve
        bound, ok = c_upper_bound(problem, result)
        assert ok and result.c < bound

    def test_suite(self, solve_suite):
        for problem, result in solve_suite:
            bound, ok = c_upper_bound(problem, result)
            assert ok, f"bound violated: c={result.c} bound={bound}"


class TestMassIdentity:
    def test_zero_field_exact(self, flat_solve):
        problem, result = flat_solve
        assert mass_identity_check(problem, result, tolerance=0.0)

    def test_manufactured(self, manufactured_solve):
        problem, _, result = manufactured_solve
        assert mass_identity_check(problem, result, tolerance=1e-10)

    def test_holds_for_non_solutions(self, flat_solve):
        problem, result = flat_solve
        rng = np.random.default_rng(0)
        fake = dataclasses.replace(result, u=random_band_limited(rng, SHAPE))
        assert mass_identity_check(problem, fake, tolerance=1e-12)


class TestAmgmAudit:
    def test_flat_gap_zero(self, flat_solve):
        problem, result = flat_solve
        assert amgm_pointwise_audit(problem, result) == pytest.approx(0.0, abs=1e-14)

    def test_manufactured_nonnegative(self, manufactured_solve):
        problem, _, result = manufactured_solve
        assert amgm_pointwise_audit(problem, result) >= -1e-9

    def test_suite_nonnegative(self, solve_suite):
        for problem, result in solve_suite:
            assert amgm_pointwise_audit(problem, result) >= -1e-9


class TestC2Ratio:
    def test_flat_zero(self, flat_solve):
        _, result = flat_solve
        assert c2_ratio(result) == 0.0

    def test_single_mode_closed_form(self):
        problem = flat_problem(SHAPE)
        x1, _, _ = grid_coordinates(SHAPE)
        a = 0.6
        u = a * np.cos(x1)
        result = diagnostics(problem, SolveResult(
            u=u - u.max(), c=1.0, residual_history=(0.0,), iterations=0,
        ))
        assert c2_ratio(result) == pytest.approx((a / 4) / ((a / 2) ** 2 + 1), rel=1e-12)

    def test_requires_diagnostics(self):
        bare = SolveResult(u=np.zeros(SHAPE), c=1.0, residual_history=(0.0,), iterations=0)
        with pytest.raises(DomainError):
            c2_ratio(bare)


class TestDomination:
    def solver_pair(self):
        x1, x2, x3 = grid_coordinates(SHAPE)
        f_high = np.exp(0.4 * np.cos(x1) + 0.2 * np.cos(x2) * np.cos(x3))
        f_low = 0.5 * f_high * np.exp(0.2 * (np.cos(x1) - 1.0))
        kappa = 0.5
        assert np.all(f_low <= kappa * f_high)
        problem_high = flat_problem(SHAPE).with_density(f_high)
        problem_low = flat_problem(SHAPE).with_density(f_low)
        return (
            newton_solve(problem_low), newton_solve(problem_high),
            f_low, f_high, kappa,
        )

    def test_solver_pair_never_contradicts(self):
        low, high, f_low, f_high, kappa = self.solver_pair()
        verdict = domination_check(low, high, f_low, f_high, kappa)
        assert verdict.status in ("hypothesis-void", "consistent")
        # for this pair the sublevel set is nonempty and the premise fails there
        assert verdict.status == "consistent"

    def test_kappa_validation(self):
        low, high, f_low, f_high, _ = self.solver_pair()
        with pytest.raises(DomainError):
            domination_check(low, high, f_low, f_high, 1.0)
        with pytest.raises(DomainError):
            domination_check(low, high, f_high, f_high, 0.5)


class TestAudit:
    def test_all_pass_on_suite(self, solve_suite):
        for problem, result in solve_suite:
            audit = audit_solve(problem, result)
            assert audit.all_ok


class TestFamily:
    def test_constant_family_rows_identical(self):
        eye = np.eye(3)
        flat = TorusProblem(gamma=eye, f=np.ones(SHAPE))
        spec = FamilySpec(
            start=flat, end=flat,
            t_grid=(0.0, 0.25, 0.5),
            bounds=DeclaredBounds(c_beta_omega=2.0),
        )
        report = family_run(spec)
        assert report.all_converged
        cs = [row.audit.c for row in report.rows]
        oscs = [row.audit.osc for row in report.rows]
        assert max(cs) - min(cs) == 0.0
        assert max(oscs) - min(oscs) == 0.0

    def test_acceptance_family_within_budget(self, family_report):
        assert family_report.all_converged
        assert family_report.within_budget
        assert len(family_report.rows) == 6

    def test_declared_bound_validated(self):
        eye = np.eye(3)
        with pytest.raises(DomainError):
            FamilySpec(
                start=TorusProblem(gamma=eye, f=np.ones(SHAPE)),
                end=TorusProblem(gamma=4.0 * eye, f=np.ones(SHAPE)),
                t_grid=(0.0, 0.5),
                bounds=DeclaredBounds(c_beta_omega=1.5),
            )

    def test_declared_bound_validated_at_the_far_endpoint(self):
        # every fiber up to t = 1/2 lies within c = 2; the end at t = 1 does not
        eye = np.eye(3)
        with pytest.raises(DomainError, match="c_beta_omega"):
            FamilySpec(
                start=TorusProblem(gamma=eye, f=np.ones(SHAPE)),
                end=TorusProblem(gamma=3.0 * eye, f=np.ones(SHAPE)),
                t_grid=(0.0, 0.25),
                bounds=DeclaredBounds(c_beta_omega=2.0),
            )

    def test_constant_endpoints_give_constant_fibers(self):
        eye = np.eye(3)
        spec = FamilySpec(
            start=TorusProblem(gamma=eye, f=np.ones(SHAPE)),
            end=TorusProblem(gamma=1.5 * eye, f=np.ones(SHAPE)),
            t_grid=(0.0, 0.5),
        )
        assert spec.fiber(0.0) is spec.start
        fiber = spec.fiber(0.5)
        assert fiber.gamma.strides[:3] == (0, 0, 0)
        assert np.array_equal(fiber.gamma[1, 2, 3], 1.25 * eye)
        assert fiber.gamma_eig_range == (1.25, 1.25)

    def test_parameter_range_validated(self):
        eye = np.eye(3)
        with pytest.raises(DomainError):
            flat = TorusProblem(gamma=eye, f=np.ones(SHAPE))
            FamilySpec(start=flat, end=flat, t_grid=(0.0, 0.9),
            )

    def test_csv_rows_shape(self, family_report):
        rows = family_report.csv_rows()
        assert rows[0][0] == "t"
        assert len(rows) == 1 + len(family_report.rows)


@pytest.fixture(scope="module")
def cold_fibers():
    """Cold solves of every fiber of the acceptance family."""
    spec = acceptance_family()
    return [(spec.fiber(t), newton_solve(spec.fiber(t))) for t in spec.t_grid]


class TestContinuation:
    """family_run starts each fiber from the last one or two solutions and
    falls back to the cold solve when that start fails."""

    def test_every_fiber_matches_its_cold_solve(self, family_report, cold_fibers):
        for row, (_, cold) in zip(family_report.rows, cold_fibers):
            assert row.audit.c == pytest.approx(cold.c, rel=1e-10, abs=0.0)

    def test_fewer_newton_steps_than_cold(self, family_report, cold_fibers):
        starts = [row.start for row in family_report.rows]
        assert starts == ["cold", "previous"] + ["secant"] * 4
        assert family_report.rows[0].newton_steps == 0
        continued = sum(row.newton_steps for row in family_report.rows)
        assert continued < sum(cold.iterations for _, cold in cold_fibers)

    def test_secant_on_a_non_uniform_grid(self, monkeypatch):
        spec = dataclasses.replace(acceptance_family(), t_grid=(0.0, 0.1, 0.3))
        starts, solutions = [], []
        real = harness.newton_solve

        def recording(problem, u0=None):
            starts.append(u0)
            result = real(problem, u0=u0)
            solutions.append(result.u)
            return result

        monkeypatch.setattr(harness, "newton_solve", recording)
        report = family_run(spec)
        assert [row.start for row in report.rows] == ["cold", "previous", "secant"]
        assert starts[0] is None
        assert np.array_equal(starts[1], solutions[0])
        expected = solutions[1] + (0.3 - 0.1) / (0.1 - 0.0) * (solutions[1] - solutions[0])
        assert np.array_equal(starts[2], expected)

    @pytest.mark.parametrize("failure", ["cone-exit", "not-converged"])
    def test_failed_warm_start_gives_the_cold_report(self, monkeypatch, cold_fibers, failure):
        real = solver._newton_loop

        def failing_warm_start(problem, u0):
            if not np.any(u0):
                return real(problem, u0)
            if failure == "cone-exit":
                return u0, np.nan, [], 0, "cone-exit"
            *head, _ = real(problem, u0)
            return (*head, "max-iterations")

        monkeypatch.setattr(solver, "_newton_loop", failing_warm_start)
        report = family_run(acceptance_family())
        assert report.all_converged
        # the t = 0 fiber is solved by u = 0, so the second fiber starts from
        # the cold iterate itself, which the planted failure spares
        assert [row.start for row in report.rows] == (
            ["cold", "previous"] + ["cold after failed warm start"] * 4
        )
        audits = [audit_solve(problem, cold) for problem, cold in cold_fibers]
        assert [row.audit for row in report.rows] == audits
        assert report.uniformity == max(a.c + 1.0 / a.c + a.osc for a in audits)
        if failure == "cone-exit":
            # a warm start that leaves the cone at once adds no step
            assert [row.newton_steps for row in report.rows] == [
                cold.iterations for _, cold in cold_fibers
            ]

    def test_cone_exit_after_failed_warm_start_counts_every_loop(self, monkeypatch):
        # f = exp(a cos x1) with a = 2 (1 - t) + 40 t: the t = 0.4 fiber has
        # a = 17.2, whose solution lies below the positivity floor
        x1, _, _ = grid_coordinates(SHAPE)
        spec = FamilySpec(
            start=TorusProblem(gamma=np.eye(3), f=np.exp(2.0 * np.cos(x1))),
            end=TorusProblem(gamma=np.eye(3), f=np.exp(40.0 * np.cos(x1))),
            t_grid=(0.0, 0.1, 0.4),
        )
        cone_exit = newton_solve(spec.fiber(0.4))
        assert cone_exit.failure == "cone-exit"
        ((shape, cold_steps),) = cone_exit.levels
        assert shape == SHAPE and cold_steps >= 1
        real = solver._newton_loop

        def failing_warm_start(problem, u0):
            if u0 is not None and np.any(u0):
                return u0, 0.0, [1.0, 0.5, 0.25, 0.125], 3, "max-iterations"
            return real(problem, u0)

        monkeypatch.setattr(solver, "_newton_loop", failing_warm_start)
        row = family_run(spec).rows[-1]
        assert (row.converged, row.failure) == (False, "cone-exit")
        assert row.start == "cold after failed warm start"
        assert row.newton_steps == 3 + cold_steps

    def test_fiber_that_leaves_the_cone_is_a_row(self):
        # the t = 0.4 fiber has f = exp(17.2 cos x1), whose solution lies
        # below the positivity floor; its solve returns, it does not raise
        x1, _, _ = grid_coordinates(SHAPE)
        spec = FamilySpec(
            start=TorusProblem(gamma=np.eye(3), f=np.exp(2.0 * np.cos(x1))),
            end=TorusProblem(gamma=np.eye(3), f=np.exp(40.0 * np.cos(x1))),
            t_grid=(0.0, 0.4),
        )
        cold = newton_solve(spec.fiber(0.4))
        report = family_run(dataclasses.replace(spec, t_grid=(0.4,)))
        (row,) = report.rows
        assert "converged" not in {f.name for f in dataclasses.fields(row)}
        assert (row.converged, row.failure, row.audit) == (False, "cone-exit", None)
        assert row.start == "cold" and row.newton_steps == cold.iterations
        assert report.uniformity == np.inf and not report.all_converged
        # a failed fiber leaves the run going
        first, last = family_run(spec).rows
        assert first.converged and last.failure == "cone-exit"

    def test_repeated_and_unsorted_parameters(self, cold_fibers):
        spec = dataclasses.replace(acceptance_family(), t_grid=(0.2, 0.2, 0.1))
        report = family_run(spec)
        assert report.all_converged
        assert [row.start for row in report.rows] == ["cold", "previous", "previous"]
        expected = {0.2: cold_fibers[2][1].c, 0.1: cold_fibers[1][1].c}
        for row in report.rows:
            assert row.audit.c == pytest.approx(expected[row.t], rel=1e-10, abs=0.0)


class TestDensityScalingInvariant:
    def test_global_constant(self, solve_suite):
        problem, result = solve_suite[2]
        k = 3.0
        scaled = newton_solve(problem.with_density(k * problem.f), u0=result.u)
        assert np.abs(scaled.u - result.u).max() <= 1e-9
        assert scaled.c * k == pytest.approx(result.c, rel=1e-9)
