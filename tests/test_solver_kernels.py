"""The solver's pointwise kernels against the generic LAPACK formulas.

The Newton loop decides ``alpha - floor I > 0`` by leading minors (n = 3) or
Cholesky (n > 3), takes ``log det alpha`` from the same algebra and builds the
linearization tensor from the adjugate (n = 3).  These properties pin each
kernel to the eigenvalue/inverse formula it replaces, on matrix fields that
include least eigenvalues just above and just below the floor.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n1ma.grid import _wavenumbers, complex_hessian, grid_coordinates, random_band_limited
from n1ma.solver import (
    TorusProblem,
    _linearization_tensor,
    _log_det_above,
    _newton_loop,
    manufactured_problem,
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
    n=st.sampled_from([3, 4]),
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
    n=st.sampled_from([3, 4]),
    seed=st.integers(0, 2**32 - 1),
    floor=st.floats(0.05, 0.5),
    kinds=st.lists(st.sampled_from(KINDS[:3]), min_size=1, max_size=6),
)
def test_log_det_and_theta_match_lapack(n, seed, floor, kinds):
    alpha = matrix_field(seed, n, floor, kinds, (floor, 3.0))
    sign, logabsdet = np.linalg.slogdet(alpha)
    assert np.all(sign == 1)
    logdet = _log_det_above(alpha, 0.0)
    assert logdet is not None
    assert np.abs(logdet - logabsdet).max() <= 1e-12
    ainv = np.linalg.inv(alpha)
    tr = np.trace(ainv, axis1=-2, axis2=-1)
    expected = (tr[..., None, None] * np.eye(n) - ainv) / (n - 1)
    theta = _linearization_tensor(alpha)
    assert theta.shape == alpha.shape
    assert np.abs(theta - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_nonfinite_entries_fail_the_predicate(n):
    alpha = np.broadcast_to(np.eye(n), (5, n, n)).copy()
    assert _log_det_above(alpha, 0.5) is not None
    alpha[2, 0, 0] = np.nan
    assert _log_det_above(alpha, 0.5) is None
    assert _log_det_above(alpha, 0.0) is None


def scatter_hessian(u):
    """The grid-major implementation the component-major one replaced."""
    shape = u.shape
    k, kd = _wavenumbers(shape)
    uh = np.fft.rfftn(u)
    d = u.ndim
    out = np.empty(u.shape + (d, d))
    for i in range(d):
        for j in range(i, d):
            mult = -(k[i] * k[j]) if i == j else -(kd[i] * kd[j])
            block = np.fft.irfftn(mult * uh, s=shape, axes=range(len(shape))) * 0.25
            out[..., i, j] = block
            if i != j:
                out[..., j, i] = block
    return out


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([8, 10, 12]), min_size=3, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    noise=st.booleans(),
)
def test_complex_hessian_matches_scatter_exactly(sizes, seed, noise):
    rng = np.random.default_rng(seed)
    shape = tuple(sizes)
    u = random_band_limited(rng, shape, max_mode=4)
    if noise:  # excite the Nyquist modes too
        u = u + rng.standard_normal(shape)
    h = complex_hessian(u)
    assert np.array_equal(h, scatter_hessian(u))
    assert np.moveaxis(h, (-2, -1), (0, 1)).flags.c_contiguous


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


def test_newton_loop_makes_no_lapack_calls_for_n3(monkeypatch):
    problem, _ = manufactured_problem(0.4, (16, 16, 16))
    calls = count_linalg_calls(monkeypatch)
    *_, iterations, converged, _ = _newton_loop(problem, np.zeros(problem.shape))
    assert converged and iterations >= 3
    # the Krylov residual check goes through the counters: they are live
    assert calls["norm"] > 0
    assert not any(calls[name] for name in LAPACK), dict(calls)


def test_newton_loop_makes_no_eigen_calls_for_n4(monkeypatch):
    shape = (8, 8, 8, 8)
    xs = grid_coordinates(shape)
    problem = TorusProblem(gamma=np.eye(4), f=np.exp(0.3 * np.cos(xs[0]) * np.cos(xs[3])))
    calls = count_linalg_calls(monkeypatch)
    *_, converged, _ = _newton_loop(problem, np.zeros(shape))
    assert converged
    assert calls["cholesky"] > 0
    assert not any(calls[name] for name in ("eigvalsh", "eigh", "eig", "eigvals")), dict(calls)
