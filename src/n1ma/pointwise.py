"""Pointwise linear algebra over fields of small Hermitian matrices.

A field is stored component-major, ``(n, n) + points`` (a grid or a batch of
samples), so every step is one vectorized operation per triangle entry.  The
solver and the cone audits share the Cholesky factor ``field_cholesky`` and
its inverse ``lower_inverse``.  The solver's eigenvalue extremes
(``hess_sup``, ``min_alpha_eig`` and the range of the metric) come from
``eig_extreme``: every point's Gershgorin bounds, widened by its own slack,
and Cholesky tests rule out the points that cannot attain the extreme, and
``eigvalsh`` runs on the rest (``certified_max``, the maximum of a per-point
value from its exact value on the few points that bounds leave open), so
the values are bitwise those of ``eigvalsh`` over every point.

Every certified bound has one rounding model: a computation on one point errs
by at most ``ROUNDING n^k eps`` times that point's own magnitude (k = 2 for
the Gershgorin bounds, 3 for the Cholesky tests and the AM-GM screen of
``eigencone``), so one point's huge entry widens no other point's bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["field_cholesky", "lower_inverse", "certified_max", "eig_extreme"]

# C of the rounding model above, and the number of points of largest bound
# that ``certified_max`` evaluates exactly first.
ROUNDING = 64
PROBE = 64

_EPS = np.finfo(float).eps


def field_cholesky(a, shift=0.0):
    """Lower Cholesky factor of ``a - shift I`` for a Hermitian (real or
    complex) component-major field a, read from its lower triangle, as
    ``{(i, j): field}`` for ``j <= i`` with a real diagonal, and the mask of
    the points where every pivot is positive.  ``shift`` is a number or a
    field.

    The pivot test is ``x > 0``, so NaN fails; a failed pivot is replaced by
    1, which keeps the rest of the factor finite.  On a real field
    ``.conj()`` and ``.real`` return the array itself: no extra work.
    """
    n = a.shape[0]
    factor = {}
    ok = True
    for j in range(n):
        pivot = a[j, j].real - shift  # a new array, updated in place
        for k in range(j):
            pivot -= (factor[j, k] * factor[j, k].conj()).real
        positive = pivot > 0
        ok = ok & positive
        pivot[~positive] = 1.0
        factor[j, j] = np.sqrt(pivot, out=pivot)
        for i in range(j + 1, n):
            entry = a[i, j]
            for k in range(j):
                entry = entry - factor[i, k] * factor[j, k].conj()
            factor[i, j] = entry / factor[j, j]
    return factor, ok


def lower_inverse(factor):
    """``M = L^-1`` of a lower triangular ``{(i, j): field}`` factor, as
    ``{(i, j): field}`` for ``j <= i``, row by row by forward substitution."""
    n = math.isqrt(2 * len(factor))  # L has n (n + 1) / 2 entries
    inv = {}
    for i in range(n):
        inv[i, i] = 1.0 / factor[i, i]
        for j in range(i):
            entry = factor[i, j] * inv[j, j]
            for k in range(j + 1, i):
                entry = entry + factor[i, k] * inv[k, j]
            inv[i, j] = -entry * inv[i, i]
    return inv


def certified_max(bound, exact, certify=None):
    """``exact(every point)`` from ``exact`` on a subset of the points.

    ``exact(points)`` is the maximum of a per-point value over an index
    array, ``bound`` a 1-D array of per-point upper bounds of that value.
    ``exact`` on the ``PROBE`` largest bounds gives a provisional maximum p;
    it runs again on the points outside the probe whose bound is not below p
    (NaN included) and that ``certify(points, p)``, a mask, does not clear.
    When ``exact`` treats each point on its own, the result is bitwise the
    full value.
    """
    probe = min(PROBE, bound.size)
    probed = np.argpartition(bound, -probe)[-probe:]
    provisional = exact(probed)
    left_open = ~(bound < provisional)
    left_open[probed] = False
    candidates = np.flatnonzero(left_open)
    if certify is not None and candidates.size:
        candidates = candidates[~certify(candidates, provisional)]
    return max(provisional, exact(candidates)) if candidates.size else provisional


def _magnitude(m, least=0.0):
    """Per point of a symmetric component-major field m, the power of two
    ``2^(e - 1)`` with the largest of ``least`` and every |entry| of its lower
    triangle in ``[2^(e - 1), 2^e)``, 1/2 if that is 0; at least the least
    normal float, so that a slack relative to it spans many subnormal units."""
    n = m.shape[0]
    big, entry = np.full(m.shape[2:], least), np.empty(m.shape[2:])
    for i in range(n):
        for j in range(i + 1):
            np.maximum(big, np.abs(m[i, j], out=entry), out=big)
    e = np.frexp(big, out=(big, np.empty(big.shape, np.intc)))[1]
    return np.ldexp(1.0, np.maximum(e, -1021) - 1, out=big)


def _eig_enclosure(m):
    """Per-point bounds ``lo <= eig <= hi`` on the eigenvalues of a symmetric
    component-major field m, and on their ``eigvalsh`` values.

    The Gershgorin interval ``[min_i (m_ii - r_i), max_i (m_ii + r_i)]``,
    ``r_i = sum_(j != i) |m_ij|``, read from the lower triangle like
    ``eigvalsh`` and widened by ``ROUNDING n^2 eps`` times the point's
    ``_magnitude`` for the rounding of both.  Sums past the float range give
    infinite bounds, and a NaN or infinite entry a NaN or infinite bound.
    Every temporary is one entry field; a zero-stride m is never copied.
    """
    n = m.shape[0]
    points = m.shape[2:]
    slack = _magnitude(m)
    slack *= ROUNDING * n * n * _EPS
    lo, hi = np.full(points, np.inf), np.full(points, -np.inf)
    radius, term = np.empty(points), np.empty(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            radius[...] = 0.0
            for j in range(n):
                if j != i:
                    radius += np.abs(m[max(i, j), min(i, j)], out=term)
            np.minimum(lo, np.subtract(m[i, i], radius, out=term), out=lo)
            np.maximum(hi, np.add(m[i, i], radius, out=term), out=hi)
        lo -= slack
        hi += slack
    return lo, hi


def eig_extreme(m, signs):
    """``max`` over the points of a symmetric component-major field m, or of
    one ``(n, n)`` matrix, of ``-eig_min`` for ``signs = (1,)``, ``eig_max``
    for ``(-1,)`` or both for ``(1, -1)``: bitwise the ``eigvalsh`` value.

    ``certified_max`` takes the enclosure's bounds (``-lo``, ``hi``).  A point
    below the provisional maximum p is certified when ``s m + (p - slack) I``
    passes a Cholesky test for every s in ``signs``; ``slack = ROUNDING n^3
    eps`` times the point's ``_magnitude``, at least that of |p|, covers the
    rounding of the factorization and of ``eigvalsh`` (Demmel 1989).  LAPACK
    factors each matrix on its own, so a field of bitwise equal matrices
    needs one ``eigvalsh``, and so does a field of zeros of both signs, whose
    constant enclosure would leave every point open.  A field that is not
    square, or has a NaN entry, raises DomainError.
    """
    if m.ndim < 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"pointwise.eig_extreme: shape {m.shape}, expected (n, n) or (n, n) + grid")
    n = m.shape[0]
    flat = m.reshape(n, n, -1)

    def exact(points):
        sub = flat[:, :, points]
        # a NaN entry makes its point's enclosure NaN, which leaves the point
        # open, so every such point reaches this check
        if not np.isfinite(sub).all():
            raise DomainError("pointwise.eig_extreme: the field must be finite")
        e = np.linalg.eigvalsh(np.moveaxis(sub, -1, 0))
        return np.max([-e[:, 0] if s > 0 else e[:, -1] for s in signs])

    bits = flat.view(np.uint64)
    if (bits == bits[:, :, :1]).all():
        return float(exact([0]))
    if not flat.any():
        # zeros of both signs: no point's +-0 can exceed the probe's maximum,
        # and a constant bound probes the points the (constant) enclosure would
        return float(certified_max(np.full(flat.shape[2], -np.inf), exact))
    lo, hi = _eig_enclosure(m)
    bound = np.negative(lo, out=lo) if signs[0] > 0 else hi
    if len(signs) > 1:
        np.maximum(bound, hi, out=bound)
    bound = bound.ravel()
    del lo, hi

    def certify(points, provisional):
        sub = flat[:, :, points]
        slack = ROUNDING * n**3 * _EPS * _magnitude(sub, abs(provisional))
        certified = True
        # a failed pivot may overflow a point far larger than p: that fails it
        with np.errstate(over="ignore", invalid="ignore"):
            for s in signs:
                certified = certified & field_cholesky(sub if s > 0 else -sub, slack - provisional)[1]
        return certified

    return float(certified_max(bound, exact, certify))
