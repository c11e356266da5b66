"""Pointwise linear algebra over fields of small Hermitian matrices.

A field is stored component-major, ``(n, n) + points`` (a grid or a batch of
samples), so every step is one vectorized operation per triangle entry and
no LAPACK routine runs.  The solver and the cone audits share the Cholesky
factor ``field_cholesky``, its inverse ``lower_inverse``, and
``certified_max``, the maximum of a per-point value from its exact value on
the few points that bounds leave open.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["field_cholesky", "lower_inverse", "certified_max"]


def field_cholesky(a, shift=0.0):
    """Lower Cholesky factor of ``a - shift I`` for a Hermitian (real or
    complex) component-major field a, read from its lower triangle, as
    ``{(i, j): field}`` for ``j <= i`` with a real diagonal, and the mask of
    the points where every pivot is positive.

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


def certified_max(bound, exact, certify=None, *, probe):
    """``exact(every point)`` from ``exact`` on a subset of the points.

    ``exact(points)`` is the maximum of a per-point value over an index
    array, ``bound`` a 1-D array of per-point upper bounds of that value.
    ``exact`` on the ``probe`` largest bounds gives a provisional maximum p;
    it runs again on the points outside the probe whose bound is not below p
    (NaN included) and that ``certify(points, p)``, a mask, does not clear.
    When ``exact`` treats each point on its own, the result is bitwise the
    full value.
    """
    probe = min(probe, bound.size)
    probed = np.argpartition(bound, -probe)[-probe:]
    provisional = exact(probed)
    left_open = ~(bound < provisional)
    left_open[probed] = False
    candidates = np.flatnonzero(left_open)
    if certify is not None and candidates.size:
        candidates = candidates[~certify(candidates, provisional)]
    return max(provisional, exact(candidates)) if candidates.size else provisional
