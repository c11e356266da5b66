"""The solver's pointwise kernels against the generic LAPACK formulas.

The Newton loop decides ``alpha - floor I > 0`` by a grid-field Cholesky
factorization, and takes ``log det alpha`` and the linearization tensor from
the Cholesky factor of alpha (the latter through its inverse).  These
properties pin each kernel to the eigenvalue/inverse formula it replaces, on
matrix fields that include least eigenvalues just above and just below the
floor.  The spectral derivatives are pinned to per-block transforms,
the one-pass GMRES operator to the reference linearization, the certified
eigenvalue extremes to the full-grid ``eigvalsh`` values, the in-place
Gershgorin enclosure to its whole-field formula and to the eigenvalues it
bounds, the pointwise kernels to a memory budget, the in-house GMRES to
a dense matrix and SciPy's GMRES, and the inexact Newton-Krylov loop to its
forcing terms and its work.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_band_limited
from n1ma import pointwise, solver
from n1ma.grid import _wavenumbers, complex_hessian, grid_coordinates, spectral_gradient
from n1ma.pointwise import eig_extreme
from n1ma.solver import (
    TorusProblem,
    _alpha_from_hessian,
    _linearization_tensor,
    _log_det_above,
    _newton_loop,
    diagnostics,
    manufactured_problem,
    newton_solve,
)

NEAR = 1e-3  # relative distance of the "above"/"below" least eigenvalues from the floor


def matrix_field(seed, n, floor, kinds, generic_range):
    """Symmetric matrices, one per entry of ``kinds``, stacked as a field.

    ``"above"``/``"below"`` put the least eigenvalue at ``floor (1 +- NEAR)``
    and the others in ``[floor + 0.5, 3]``; ``"pair-below"`` also moves the
    second one below the floor, so that ``det(alpha - floor I) > 0`` and only
    a smaller minor or factor can tell; ``"generic"`` draws every eigenvalue
    uniformly from ``generic_range``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((len(kinds), n, n))
    for k, kind in enumerate(kinds):
        eigs = rng.uniform(floor + 0.5, 3.0, size=n)
        if kind == "generic":
            eigs = rng.uniform(*generic_range, size=n)
        elif kind == "above":
            eigs[0] = floor * (1 + NEAR)
        else:
            eigs[0] = floor * (1 - NEAR)
            if kind == "pair-below":
                eigs[1] = floor - rng.uniform(0.1, 1.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * eigs) @ q.T
        out[k] = (m + m.T) / 2
    return out


KINDS = ["generic", "above", "below", "pair-below"]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    floor=st.sampled_from([1e-6, 1e-3, 0.1, 0.5]),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
)
def test_cone_predicate_matches_least_eigenvalue(n, seed, floor, kinds):
    # generic matrices may be indefinite: the predicate must reject them too
    alpha = matrix_field(seed, n, floor, kinds, (-1.0, 3.0))
    expected = np.linalg.eigvalsh(alpha)[:, 0] > floor
    for k in range(len(kinds)):
        assert (_log_det_above(alpha[k:k + 1], floor) is not None) == expected[k]
    assert (_log_det_above(alpha, floor) is not None) == expected.all()


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    floor=st.floats(0.05, 0.5),
    kinds=st.lists(st.sampled_from(KINDS[:3]), min_size=1, max_size=6),
)
def test_log_det_and_theta_match_lapack(n, seed, floor, kinds):
    alpha = matrix_field(seed, n, floor, kinds, (floor, 3.0))
    sign, logabsdet = np.linalg.slogdet(alpha)
    assert np.all(sign == 1)
    state = _log_det_above(alpha, 0.0)
    assert state is not None
    factor, logdet = state
    assert np.abs(logdet - logabsdet).max() <= 1e-12
    ainv = np.linalg.inv(alpha)
    tr = np.trace(ainv, axis1=-2, axis2=-1)
    expected = (tr[..., None, None] * np.eye(n) - ainv) / (n - 1)
    theta = _linearization_tensor(factor)
    assert theta.shape == alpha.shape
    assert np.abs(theta - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_nonfinite_entries_fail_the_predicate(n):
    alpha = np.broadcast_to(np.eye(n), (5, n, n)).copy()
    assert _log_det_above(alpha, 0.5) is not None
    alpha[2, 0, 0] = np.nan
    assert _log_det_above(alpha, 0.5) is None
    assert _log_det_above(alpha, 0.0) is None


def scatter_hessian(u, fft=sfft):
    """Grid-major Hessian with one ``irfftn`` per block, from ``fft``."""
    shape = u.shape
    k, kd = _wavenumbers(shape)
    uh = fft.rfftn(u)
    d = u.ndim
    out = np.empty(u.shape + (d, d))
    for i in range(d):
        for j in range(i, d):
            mult = -(k[i] * k[j]) if i == j else -(kd[i] * kd[j])
            block = fft.irfftn(mult * uh, s=shape, axes=range(len(shape))) * 0.25
            out[..., i, j] = block
            if i != j:
                out[..., j, i] = block
    return out


def per_axis_gradient(u, fft):
    """Gradient with one ``irfftn`` per component, from ``fft``."""
    _, kd = _wavenumbers(u.shape)
    uh = fft.rfftn(u)
    return np.stack([fft.irfftn(1j * k * uh, s=u.shape, axes=range(u.ndim)) for k in kd], axis=-1)


def band_limited_or_noisy(sizes, seed, noise):
    rng = np.random.default_rng(seed)
    shape = tuple(sizes)
    u = random_band_limited(rng, shape, max_mode=4)
    if noise:  # excite the Nyquist modes too
        u = u + rng.standard_normal(shape)
    return u


FIELDS = dict(
    sizes=st.lists(st.sampled_from([8, 10, 12]), min_size=3, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    noise=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(**FIELDS)
def test_complex_hessian_matches_scatter_exactly(sizes, seed, noise):
    # the batched inverse transform gives every block bit for bit
    u = band_limited_or_noisy(sizes, seed, noise)
    h = complex_hessian(u)
    assert np.array_equal(h, scatter_hessian(u))
    assert np.moveaxis(h, (-2, -1), (0, 1)).flags.c_contiguous
    reference = scatter_hessian(u, np.fft)
    assert np.abs(h - reference).max() <= 1e-12 * np.abs(reference).max()


@settings(max_examples=25, deadline=None)
@given(**FIELDS)
def test_spectral_gradient_matches_per_axis_transforms(sizes, seed, noise):
    u = band_limited_or_noisy(sizes, seed, noise)
    g = spectral_gradient(u)
    assert np.array_equal(g, per_axis_gradient(u, sfft))
    reference = per_axis_gradient(u, np.fft)
    assert np.abs(g - reference).max() <= 1e-12 * np.abs(reference).max()


LAPACK = ("eigvalsh", "eigh", "eig", "eigvals", "inv", "cholesky", "det", "slogdet", "solve")


def count_linalg_calls(monkeypatch):
    """Wrap numpy.linalg's LAPACK routines and ``norm`` with call counters."""
    calls = Counter()
    for name in LAPACK + ("norm",):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def loop_problem(n, size, amplitude):
    """The 16^3 manufactured problem for n = 3, else an identity metric and
    the density ``exp(amplitude cos x1 cos xn)`` on ``size^n``."""
    if n == 3:
        return manufactured_problem(0.4, (16, 16, 16))[0]
    xs = grid_coordinates((size,) * n)
    return TorusProblem(gamma=np.eye(n), f=np.exp(amplitude * np.cos(xs[0]) * np.cos(xs[-1])))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_newton_loop_makes_no_lapack_calls(monkeypatch, n):
    problem = loop_problem(n, 8, 0.3)
    calls = count_linalg_calls(monkeypatch)
    outcome = _newton_loop(problem, np.zeros(problem.shape))
    assert outcome.failure is None and outcome.steps >= 3
    # the Krylov residual check goes through the counters: they are live
    assert calls["norm"] > 0
    assert not any(calls[name] for name in LAPACK), dict(calls)


@pytest.mark.parametrize("n, size", [(3, 16), (4, 12)])
def test_newton_loop_factors_each_iterate_once(monkeypatch, n, size):
    # alpha is factored once for log det, theta and the cone test; alpha -
    # floor I is factored only on the points the bound leaves open, which
    # on these problems are none
    problem = loop_problem(n, size, 0.6)
    calls, open_points = Counter(), []
    original_alpha, original_cholesky = solver.alpha_field, solver.field_cholesky

    def counted_alpha(*args):
        calls["alpha_field"] += 1
        return original_alpha(*args)

    def counted_cholesky(a, shift=0.0):
        if shift:
            open_points.append(a[0, 0].size)
        else:
            calls["field_cholesky"] += 1
        return original_cholesky(a, shift)

    monkeypatch.setattr(solver, "alpha_field", counted_alpha)
    monkeypatch.setattr(solver, "field_cholesky", counted_cholesky)
    outcome = _newton_loop(problem, np.zeros(problem.shape))
    assert outcome.failure is None and outcome.steps >= 3
    assert calls["alpha_field"] >= outcome.steps + 1
    assert calls["field_cholesky"] == calls["alpha_field"], dict(calls)
    assert open_points == []


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    floor=st.sampled_from([1e-6, 1e-3, 0.1, 0.5]),
    kinds=st.lists(st.sampled_from(KINDS[:3]), min_size=1, max_size=6),
)
def test_floor_bound_clears_only_points_above_the_floor(n, seed, floor, kinds):
    # positive definite fields: every cleared point lies above the floor,
    # and the bound clears c I, c = 2 n^(n-1) floor, at twice the floor
    alpha = matrix_field(seed, n, floor, kinds, (floor / 2, 3.0))
    alpha = np.concatenate([alpha, [2.0 * n ** (n - 1) * floor * np.eye(n)]])
    a = component_major(alpha)
    factor, ok = pointwise.field_cholesky(a)
    assert np.all(ok)
    cleared = solver._clears_floor(a, factor, floor)
    assert np.all(np.linalg.eigvalsh(alpha)[cleared, 0] > floor)
    assert cleared[-1]
    # points 1e-3 above the floor are left to the exact test
    assert not np.any(cleared[:-1][np.array(kinds) == "above"])


def component_major(m):
    return np.moveaxis(m, (-2, -1), (0, 1))


def min_eig(m):
    """Least eigenvalue of a grid-major field, by ``eig_extreme``."""
    return -eig_extreme(component_major(m), (1,))


def sup_abs_eig(m):
    """Largest |eigenvalue| of a grid-major field, by ``eig_extreme``."""
    return eig_extreme(component_major(m), (1, -1))


def eig_range(m):
    """``(least, largest)`` eigenvalue of a component-major field, by
    ``eig_extreme``."""
    return -eig_extreme(m, (1,)), eig_extreme(m, (-1,))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    constant=st.booleans(),
    scale=st.sampled_from([1.0, 1e-8, 1e8]),
)
def test_certified_extremes_equal_full_grid_eigvalsh(n, seed, constant, scale):
    rng = np.random.default_rng(seed)
    shape = (8,) * (n - 1) + (10,)
    if constant:  # every point ties
        m = rng.standard_normal((n, n))
        h = np.broadcast_to(scale * (m + m.T), shape + (n, n))
    else:
        h = complex_hessian(scale * random_band_limited(rng, shape, max_mode=3))
    g = rng.standard_normal((n, n))
    problem = TorusProblem(gamma=g @ g.T + np.eye(n), f=np.ones(shape))
    alpha = _alpha_from_hessian(problem, h.copy())  # consumes its Hessian
    assert sup_abs_eig(h) == float(np.abs(np.linalg.eigvalsh(h)).max())
    eigs = np.linalg.eigvalsh(alpha)
    assert min_eig(alpha) == float(eigs[..., 0].min())
    # the metric spectrum of TorusProblem and config
    assert eig_range(component_major(alpha)) == (float(eigs[..., 0].min()), float(eigs[..., -1].max()))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    scale=st.sampled_from([1.0, 1e-8, 1e8, "mixed"]),
)
def test_certificates_keep_every_possible_extreme(n, seed, shared, scale):
    # Randomly rotated spectra make the Gershgorin bounds loose
    # at every point: the probe rarely holds the extreme, and the Cholesky
    # certificates decide.  A shared spectrum makes every point tie up to
    # the rounding of eigvalsh.  A mixed field scales each point between
    # 1e-150 and 1e150, so that every point's slack is its own.
    rng = np.random.default_rng(seed)
    points = 2000
    if scale == "mixed":
        scale = 10.0 ** rng.uniform(-150.0, 150.0, size=(points, 1, 1))
    eigs = rng.uniform(-1.0, 3.0, size=(1 if shared else points, 1, n))
    q, _ = np.linalg.qr(rng.standard_normal((points, n, n)))
    m = scale * (q * eigs) @ q.transpose(0, 2, 1)
    m = (m + m.transpose(0, 2, 1)) / 2
    full = np.linalg.eigvalsh(m)
    assert min_eig(m) == float(full[:, 0].min())
    assert sup_abs_eig(m) == float(np.abs(full).max())
    assert eig_range(component_major(m)) == (float(full[:, 0].min()), float(full[:, -1].max()))


def test_tied_bounds_do_not_make_a_field_uniform():
    # equal Gershgorin bounds at every point, two spectra:
    # (-1, -1, 2) and (-2, 1, 1)
    a = np.ones((3, 3)) - np.eye(3)
    b = a * np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]])
    m = np.stack([a, b] * 50)
    full = np.linalg.eigvalsh(m)
    assert min_eig(m) == float(full[:, 0].min())
    assert sup_abs_eig(m) == float(np.abs(full).max())
    assert eig_range(component_major(m)) == (float(full[:, 0].min()), float(full[:, -1].max()))


def test_metric_range_reads_the_triangle_eigvalsh_reads():
    # a metric symmetric only to allclose's tolerance, with tight bounds at
    # every point: they must bound the lower triangle, which eigvalsh and
    # the Cholesky tests read
    shape = (8, 8, 8)
    g = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    g[..., 0, 1] = 0.3
    g[..., 1, 0] = 0.3 + 1e-9 * np.random.default_rng(0).uniform(size=shape)
    eigs = np.linalg.eigvalsh(g)
    problem = TorusProblem(gamma=g, f=np.ones(shape))
    assert problem.gamma_eig_range == (float(eigs[..., 0].min()), float(eigs[..., -1].max()))


def count_eigvalsh_points(monkeypatch):
    """Wrap numpy.linalg.eigvalsh to count the matrices it is given."""
    points = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        points.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return points


def count_hessians(monkeypatch):
    """Wrap the solver's complex_hessian to count its calls."""
    hessians = Counter()
    original = solver.complex_hessian

    def counted(v):
        hessians["calls"] += 1
        return original(v)

    monkeypatch.setattr(solver, "complex_hessian", counted)
    return hessians


def hessian_of_alpha(problem, alpha):
    """``(tr A) I - (n - 1) A``, ``A = alpha - Gamma``, for a grid-major
    alpha, in the operation order of the solver's map."""
    n = problem.n
    a = alpha - problem.gamma
    tr = sum(a[..., i, i] for i in range(n))
    h = a * -(n - 1)
    for i in range(n):
        h[..., i, i] = tr - (n - 1) * a[..., i, i]
    return h


def test_solve_diagnostics_read_the_loop_alpha(monkeypatch):
    problem, _ = manufactured_problem(0.4, (32, 32, 32))
    hessians = count_hessians(monkeypatch)
    after_loop, outcomes = [], []
    loop = solver._newton_loop

    def recorded(*args):
        outcomes.append(loop(*args))
        after_loop.append(hessians["calls"])
        return outcomes[-1]

    monkeypatch.setattr(solver, "_newton_loop", recorded)
    result = newton_solve(problem)
    assert result.converged
    # the diagnostics read the last loop's alpha: no Hessian after it
    assert hessians["calls"] == after_loop[-1]
    # the diagnostics are those of the Hessian and alpha of the field the
    # last loop tested, up to the rounding of alpha; result.u is that field
    # shifted to sup u = 0, a shift that rounds u at 1e-16, which the
    # Hessian amplifies to about 1e-13 of hess_sup on this grid
    for u, rel in ((outcomes[-1].tested, 1e-13), (result.u, 1e-12)):
        full_hess = float(np.abs(np.linalg.eigvalsh(complex_hessian(u))).max())
        full_alpha = float(np.linalg.eigvalsh(solver.alpha_field(problem, u))[..., 0].min())
        assert result.hess_sup == pytest.approx(full_hess, rel=rel, abs=0)
        assert result.min_alpha_eig == pytest.approx(full_alpha, rel=rel, abs=0)


def test_diagnostics_are_the_eigenvalues_of_the_alpha_handed_in(monkeypatch, manufactured_solve):
    problem, _, result = manufactured_solve
    u = result.u
    alpha = solver.alpha_field(problem, u)
    expected_alpha = float(np.linalg.eigvalsh(alpha)[..., 0].min())
    expected_hess = float(np.abs(np.linalg.eigvalsh(hessian_of_alpha(problem, alpha))).max())
    hessians = count_hessians(monkeypatch)
    points = count_eigvalsh_points(monkeypatch)
    handed = diagnostics(problem, result, alpha.copy())
    assert hessians["calls"] == 0
    assert handed.min_alpha_eig == expected_alpha
    assert handed.hess_sup == expected_hess
    # a probe and a candidate set per extreme, far fewer points than the grid
    assert len(points) == 4
    assert sum(points) <= 0.05 * u.size
    assert handed.grad_sup == result.grad_sup


def test_hessian_from_a_large_background_meets_its_rounding_model():
    # Gamma = 1e3 I rounds alpha at 1e3 times the Hessian's scale; the
    # recovered Hessian errs by at most ROUNDING n^2 eps times that
    shape, n = (16, 16, 16), 3
    u = random_band_limited(np.random.default_rng(5), shape, max_mode=3, amplitude=0.5)
    problem = TorusProblem(gamma=1e3 * np.eye(n), f=np.ones(shape))
    alpha = solver.alpha_field(problem, u)
    scale = max(np.abs(alpha).max(), 1e3)
    exact = float(np.abs(np.linalg.eigvalsh(complex_hessian(u))).max())
    result = solver.SolveResult(u=u, c=1.0, residual_history=(0.0,), iterations=0)
    hess_sup = diagnostics(problem, result, alpha).hess_sup
    assert abs(hess_sup - exact) <= pointwise.ROUNDING * n**2 * np.finfo(float).eps * scale
    assert exact > 0.1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_enclosure_of_the_largest_finite_entries(monkeypatch):
    # an entry of 2^1023 or more must not overflow the per-point slack of
    # the enclosure, which would make every bound NaN
    shape = (8, 8, 8)
    m = np.zeros((3, 3) + shape)
    for i in range(3):
        m[i, i] = i + 1.0
    m[0, 1, 3, 4, 5] = m[1, 0, 3, 4, 5] = 1.5e308
    grid_major = np.moveaxis(m, (0, 1), (-2, -1))
    full = np.linalg.eigvalsh(grid_major)
    points = count_eigvalsh_points(monkeypatch)
    for extreme, expected in [
        (lambda: eig_range(m), (float(full[..., 0].min()), float(full[..., -1].max()))),
        (lambda: min_eig(grid_major), float(full[..., 0].min())),
        (lambda: sup_abs_eig(grid_major), float(np.abs(full).max())),
    ]:
        points.clear()
        assert extreme() == expected
        assert sum(points) < m[0, 0].size


def test_one_huge_entry_widens_no_other_bounds(monkeypatch):
    # each point's slack scales with its own entries: one diagonal entry of
    # 1.5e308 sends its own point to eigvalsh, not every point of the grid
    u = random_band_limited(np.random.default_rng(17), (16, 16, 16), max_mode=3)
    h = component_major(complex_hessian(u))
    h[0, 0, 3, 4, 5] = 1.5e308
    full = np.linalg.eigvalsh(np.moveaxis(h, (0, 1), (-2, -1)))
    points = count_eigvalsh_points(monkeypatch)
    for signs, expected in [
        ((1,), -float(full[..., 0].min())),
        ((-1,), float(full[..., -1].max())),
        ((1, -1), float(np.abs(full).max())),
    ]:
        points.clear()
        assert eig_extreme(h, signs) == expected
        assert sum(points) <= 2 * pointwise.PROBE, signs


def reference_enclosure(m):
    """The Gershgorin bounds of ``_eig_enclosure`` on whole-field
    temporaries: the reference its in-place sums must equal bit for bit.
    Each point is widened by ``ROUNDING n^2 eps`` times the power of two of
    its own largest |entry| (at least the least normal float)."""
    n = m.shape[0]
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    big = np.max([np.abs(m[i, j]) for i, j in lower], axis=0)
    scale = np.ldexp(1.0, np.maximum(np.frexp(big)[1], -1021) - 1)
    slack = pointwise.ROUNDING * n * n * np.finfo(float).eps * scale
    radius = [sum(np.abs(m[max(i, j), min(i, j)]) for j in range(n) if j != i) for i in range(n)]
    lo = np.minimum.reduce([m[i, i] - r for i, r in enumerate(radius)])
    hi = np.maximum.reduce([m[i, i] + r for i, r in enumerate(radius)])
    return lo - slack, hi + slack


def assert_enclosure_is_the_reference(m):
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = list(zip(pointwise._eig_enclosure(m), reference_enclosure(m)))
    for got, expected in pairs:
        got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
        assert got.shape == expected.shape
        # bit patterns: signed zeros and NaNs included
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.integers(-300, 300),
)
def test_enclosure_is_bitwise_the_reference(n, seed, log_scale):
    m = np.random.default_rng(seed).standard_normal((n, n, 6, 5, 4)) * 10.0**log_scale
    assert_enclosure_is_the_reference(m + m.swapaxes(0, 1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.one_of(st.integers(-300, 300), st.just("mixed")),
    tight=st.booleans(),
    planted=st.sampled_from([None, np.nan, np.inf, -np.inf]),
)
def test_enclosure_contains_every_eigvalsh_value(n, seed, log_scale, tight, planted):
    # the contract behind the bitwise reference: every finite point's
    # eigvalsh values lie in its bounds, at any scale, also when each point
    # has its own; a NaN or infinite entry leaves a bound NaN or infinite.
    # A tight field holds d I + c (J - I) under a sign flip at every point:
    # one of its Gershgorin bounds is an eigenvalue, so only the slack
    # covers the rounding.
    rng = np.random.default_rng(seed)
    points = (6, 5, 4)
    if log_scale == "mixed":
        log_scale = rng.uniform(-300.0, 300.0, size=points)
    if tight:
        d, c = rng.standard_normal((2,) + points)
        flip = rng.choice([-1.0, 1.0], size=(n,) + points)
        m = (c + (d - c) * np.eye(n).reshape((n, n, 1, 1, 1))) * flip * flip[:, None]
    else:
        m = rng.standard_normal((n, n) + points)
        m = m + m.swapaxes(0, 1)
    m = m * 10.0**log_scale
    bad = np.zeros(points, dtype=bool)
    if planted is not None:
        for _ in range(3):
            i, j = rng.integers(n, size=2)
            point = tuple(rng.integers(points))
            m[(i, j) + point] = m[(j, i) + point] = planted
            bad[point] = True
    lo, hi = pointwise._eig_enclosure(m)
    eigs = np.linalg.eigvalsh(np.moveaxis(m, (0, 1), (-2, -1))[~bad])
    assert (lo[~bad] <= eigs[:, 0]).all()
    assert (eigs[:, -1] <= hi[~bad]).all()
    assert not (np.isfinite(lo) & np.isfinite(hi))[bad].any()


def special_fields(n):
    """Fields the enclosure must bound like the reference: zeros of either
    sign, NaN and infinite entries, one matrix, a constant field and an
    entry near the float limit."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a += a.T
    zeros = np.zeros((n, n, 4, 4, 4))
    signed = zeros.copy()
    signed[0, 1] = signed[1, 0] = signed[n - 1, n - 1] = -0.0
    nan, inf = (np.broadcast_to(a.reshape(n, n, 1, 1, 1), (n, n, 4, 4, 4)).copy() for _ in range(2))
    nan[1, 1, 0, 0, 0] = nan[0, 2, 1, 2, 3] = np.nan
    inf[0, 2, 1, 1, 1] = inf[2, 0, 1, 1, 1] = np.inf
    inf[1, 1, 2, 2, 2] = -np.inf
    huge = np.zeros((n, n, 8, 8, 8))
    for i in range(n):
        huge[i, i] = i + 1.0
    huge[0, 1, 3, 4, 5] = huge[1, 0, 3, 4, 5] = 1.5e308
    return {
        "zeros": zeros,
        "negative-zeros": -zeros,
        "signed-zeros": signed,
        "nan": nan,
        "inf": inf,
        "matrix": a,
        "constant": np.broadcast_to(a.reshape(n, n, 1, 1, 1), (n, n, 8, 8, 8)),
        "huge": huge,
    }


@pytest.mark.parametrize("kind", list(special_fields(3)))
@pytest.mark.parametrize("n", [3, 4])
def test_enclosure_of_special_fields_is_bitwise_the_reference(n, kind):
    assert_enclosure_is_the_reference(special_fields(n)[kind])


def traced_peak(fn):
    """Peak traced allocation while ``fn()`` runs, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# peaks in grid fields: the enclosure (of a field and of a constant field)
# and the diagnostics; alpha_field stays within complex_hessian's own peak
KERNEL_BUDGETS = {(32, 32, 32): (12, 21), (16, 12, 10, 8): (13, 29)}


@pytest.mark.parametrize("shape", list(KERNEL_BUDGETS))
def test_pointwise_kernels_allocate_single_fields(shape):
    n = len(shape)
    u = random_band_limited(np.random.default_rng(n), shape, max_mode=3, amplitude=0.2)
    u -= u.max()
    problem = TorusProblem(gamma=np.eye(n), f=np.ones(shape))
    h = np.moveaxis(complex_hessian(u), (-2, -1), (0, 1))
    constant = np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * n), h.shape)
    result = solver.SolveResult(u=u, c=1.0, residual_history=(0.0,), iterations=0)
    enclosure, diagnosed = KERNEL_BUDGETS[shape]
    field = u.nbytes
    assert traced_peak(lambda: pointwise._eig_enclosure(h)) <= enclosure * field
    assert traced_peak(lambda: pointwise._eig_enclosure(constant)) <= enclosure * field
    hessian = traced_peak(lambda: complex_hessian(u))
    assert traced_peak(lambda: solver.alpha_field(problem, u)) <= hessian + field / 4
    assert traced_peak(lambda: diagnostics(problem, result, solver.alpha_field(problem, u))) <= diagnosed * field


def count_operator_applications(monkeypatch):
    """Count calls of the linearized operator, preconditioner applies aside."""
    counts = Counter()
    preconditioners = set()
    make_preconditioner = solver._preconditioner
    make_operator = solver.LinearOperator

    def preconditioner(*args):
        apply = make_preconditioner(*args)
        preconditioners.add(apply)
        return apply

    def operator(shape, matvec, dtype):
        if matvec in preconditioners:
            return make_operator(shape, matvec=matvec, dtype=dtype)

        def counted(v):
            counts["matvecs"] += 1
            return matvec(v)

        return make_operator(shape, matvec=counted, dtype=dtype)

    monkeypatch.setattr(solver, "_preconditioner", preconditioner)
    monkeypatch.setattr(solver, "LinearOperator", operator)
    return counts


def record_forcing(monkeypatch):
    """Wrap the solver's GMRES to record ``(rtol, true relative residual,
    within)`` of every correction; ``within`` is None unless GMRES reported
    success, else whether the true residual meets the test GMRES made of its
    closing residual, ``|rhs - A y| <= rtol |rhs|``."""
    records = []
    original = solver.gmres

    def recording(op, rhs, **kwargs):
        y, info = original(op, rhs, **kwargs)
        rtol, rhs_norm = kwargs["rtol"], np.linalg.norm(rhs)
        true_norm = np.linalg.norm(op.matvec(y) - rhs)
        within = bool(true_norm <= rtol * rhs_norm) if info == 0 else None
        records.append((rtol, true_norm / rhs_norm, within))
        return y, info

    monkeypatch.setattr(solver, "gmres", recording)
    return records


def assert_within_forcing(records, tolerance):
    # eta >= min(cap, sqrt(0.1 tol)), up to the rounding of 0.1 tol / res
    least = min(solver._FORCING_CAP, np.sqrt(0.1 * tolerance)) * (1 - 4 * np.finfo(float).eps)
    assert records
    for eta, true_res, within in records:
        assert least <= eta <= solver._FORCING_CAP
        assert true_res <= 2 * eta
        # the success GMRES reports, which the solver takes without a product
        assert within is not False
    assert any(within for _, _, within in records)


def test_corrections_meet_their_forcing_terms(monkeypatch):
    problem, u_star = manufactured_problem(0.4, (32, 32, 32))
    records = record_forcing(monkeypatch)
    result = newton_solve(problem)
    assert result.converged and result.iterations == len(records) == 4
    assert_within_forcing(records, problem.options.tolerance)
    # the last correction is solved no tighter than the outer tolerance needs
    assert records[-1][0] == solver._FORCING_CAP
    assert np.abs(result.u - u_star).max() <= 1e-9


def test_oscillating_corrections_meet_their_forcing_terms(monkeypatch):
    # a left-preconditioned GMRES stopped at the same tolerances leaves
    # true residuals up to 3.2e-4 here, above 2 eta
    x1, x2, x3 = grid_coordinates((16, 16, 16))
    f = np.exp(0.4 * np.cos(x1) + 0.2 * np.cos(x2) * np.cos(x3))
    problem = TorusProblem(gamma=np.eye(3), f=f)
    records = record_forcing(monkeypatch)
    assert newton_solve(problem).converged
    assert_within_forcing(records, problem.options.tolerance)


@pytest.mark.parametrize("shape", [(16, 12, 10), (8, 10, 8, 12)])
def test_preconditioned_operator_is_the_linearization_of_m_inverse(shape):
    # the one-pass operator against the reference directional derivative
    # applied to the preconditioned vector, on a non-constant metric
    rng = np.random.default_rng(len(shape))
    n = len(shape)
    xs = grid_coordinates(shape)
    gamma = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
    gamma[..., 0, 1] = gamma[..., 1, 0] = 0.2 * np.sin(xs[-1])
    problem = TorusProblem(gamma=gamma, f=np.ones(shape))
    u = random_band_limited(rng, shape, max_mode=3, amplitude=0.3)
    theta = _linearization_tensor(solver._alpha_state(problem, u)[0])
    inverse = solver._inverse_symbol(shape, theta.mean(axis=tuple(range(n))))
    matvec = solver._preconditioned_operator(shape, solver._operator_weights(theta), inverse)
    y = rng.standard_normal(u.size)
    out = matvec(y)
    expected = solver.linearized_apply(problem, u, solver._preconditioner(shape, inverse)(y).reshape(shape))
    expected -= expected.mean()
    assert np.abs(out - expected.ravel()).max() <= 1e-12 * np.abs(expected).max()


def dense_system(n=40, seed=0, spread=1.0):
    """A nonsymmetric ``(a, b)``, ``a = 3 I + spread G / sqrt(n)`` with G
    standard normal: its eigenvalues lie near the disc of radius ``spread``
    around 3, so the default is well conditioned."""
    rng = np.random.default_rng(seed)
    return 3.0 * np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


def counted_operator(a):
    """A ``solver.LinearOperator`` of the dense matrix a and its matvec count."""
    counts = Counter()

    def matvec(v):
        counts["matvecs"] += 1
        return a @ v

    return solver.LinearOperator(a.shape, matvec=matvec, dtype=float), counts


@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10])
def test_gmres_meets_its_tolerance_with_one_product_per_iteration(rtol):
    from scipy.sparse.linalg import gmres as scipy_gmres

    a, b = dense_system()
    op, counts = counted_operator(a)
    x, info = solver.gmres(op, b, rtol=rtol)
    assert info == 0
    assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)
    # SciPy's GMRES reports each iteration of the same cycle to its callback
    # and spends one more product on its closing residual; this one does not
    iterations = []
    scipy_gmres(a, b, rtol=rtol, atol=0.0, restart=200, maxiter=1, callback=iterations.append,
                callback_type="pr_norm")
    assert counts["matvecs"] == len(iterations) > 0


@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10, 1e-14])
def test_gmres_closing_residual_is_the_true_residual(rtol):
    a, b = dense_system(seed=1)
    op, _ = counted_operator(a)
    x, r = solver._gmres_cycle(op, b, rtol)
    assert np.linalg.norm(r - (b - a @ x)) <= 1e-12 * np.linalg.norm(b)


def test_gmres_of_a_zero_rhs_takes_no_product():
    op, counts = counted_operator(dense_system()[0])
    x, info = solver.gmres(op, np.zeros(40), rtol=1e-8)
    assert info == 0 and counts["matvecs"] == 0
    assert np.array_equal(x, np.zeros(40))


def test_gmres_stops_at_an_exact_breakdown():
    # A = I: the first product lies in the basis, and x = b is exact
    b = dense_system()[1]
    op, counts = counted_operator(np.eye(40))
    x, info = solver.gmres(op, b, rtol=1e-12)
    assert info == 0 and counts["matvecs"] == 1
    assert np.abs(x - b).max() <= 1e-15 * np.abs(b).max()


def test_gmres_basis_stays_orthonormal():
    # eigenvalues over eight decades: one pass of classical Gram-Schmidt
    # loses orthogonality to about 4e-3 here, the second pass restores it
    rng = np.random.default_rng(2)
    a = np.diag(np.logspace(0, 8, 80)) + 1e-3 * rng.standard_normal((80, 80))
    inputs = []

    def matvec(v):
        inputs.append(v.copy())
        return a @ v

    solver.gmres(solver.LinearOperator(a.shape, matvec=matvec), rng.standard_normal(80), rtol=1e-14)
    basis = np.array(inputs)
    assert len(basis) == 80
    assert np.abs(basis @ basis.T - np.eye(80)).max() <= 1e-13


def test_gmres_reports_an_unconverged_cycle(monkeypatch):
    # eigenvalues spread over a disc of radius 2.9 around 3: two iterations
    # are far from 1e-10
    monkeypatch.setattr(solver, "_KRYLOV_MAXITER", 2)
    a, b = dense_system(spread=2.9)
    op, counts = counted_operator(a)
    x, info = solver.gmres(op, b, rtol=1e-10)
    assert info == 1 and counts["matvecs"] == 2
    assert np.linalg.norm(b - a @ x) > 1e-10 * np.linalg.norm(b)


def test_manufactured_solve_work(monkeypatch):
    problem, _ = manufactured_problem(0.4, (32, 32, 32))
    counts = count_operator_applications(monkeypatch)
    steps = Counter()
    original = solver.gmres

    def counted(*args, **kwargs):
        steps["gmres"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "gmres", counted)
    result = newton_solve(problem)
    assert result.converged
    assert result.iterations == steps["gmres"] == 4
    # GMRES iterations only: the closing residual comes from the stored
    # products, and a correction GMRES reports converged takes no product for
    # the true-residual check
    assert 4 < counts["matvecs"] <= 13


def test_unconverged_report_costs_one_product_and_no_bit(monkeypatch):
    # GMRES's own corrections reported unconverged (info = 1) are judged by
    # their true residual: one more operator application per correction,
    # and the same iterates
    problem, _ = manufactured_problem(0.4, (16, 16, 16))
    counts = count_operator_applications(monkeypatch)
    reference = newton_solve(problem)
    converged_matvecs = counts["matvecs"]
    counts.clear()
    original = solver.gmres

    def unconverged(*args, **kwargs):
        counts["gmres"] += 1
        return original(*args, **kwargs)[0], 1

    monkeypatch.setattr(solver, "gmres", unconverged)
    result = newton_solve(problem)
    assert result.converged and counts["gmres"] == result.iterations == reference.iterations == 4
    assert counts["matvecs"] == converged_matvecs + counts["gmres"]
    assert np.array_equal(result.u, reference.u) and result.c == reference.c
    assert result.residual_history == reference.residual_history


def test_manufactured_64_ladder_work(monkeypatch):
    # the fine 64^3 grid starts from the prolonged 32^3 solution, itself
    # from 16^3; band-limited data leave nothing for the fine levels to do
    problem, u_star = manufactured_problem(0.4, (64, 64, 64))
    operators = []
    original = solver.gmres

    def recording(op, rhs, **kwargs):
        operators.append(op.shape)
        return original(op, rhs, **kwargs)

    monkeypatch.setattr(solver, "gmres", recording)
    result = newton_solve(problem)
    assert result.levels == (((16,) * 3, 4), ((32,) * 3, 0), ((64,) * 3, 0))
    assert operators == [(16**3, 16**3)] * 4
    assert result.converged and result.final_residual <= problem.options.tolerance
    assert np.abs(result.u - u_star).max() <= 1e-8
    assert abs(result.c - 1.0) <= 1e-8
