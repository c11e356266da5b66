"""Pointwise eigenvalue calculus for the hat-transform cone hierarchy.

A *spectrum* is a 1-D array of n >= 3 real Hessian eigenvalues.  The central
object is the linear hat transform

    hat(lam)_i = sum_k lam_k - lam_i,

which turns the positivity condition "(Delta u) * omega - dd^c u >= 0" into
entrywise inequalities on hat(lam).  The module provides the cone membership
predicates built from it (psh, m-subharmonic, hat-psh and the quasi variant
relative to a background metric) and the two arithmetic-geometric-mean
comparison gaps of the audits: the product gap of an omega-psh spectrum, and
the trace-form gap ``tr_omega alpha - n (det_omega alpha)^(1/n)`` of
``(beta, omega, hess)`` matrix triples, with alpha from the hat map.  The
audits' random triples are built in closed form, with no BLAS or LAPACK
call, a chunk of samples at a time as component-major fields (the layout of
``n1ma.pointwise``): ``cone_points_gap_min`` screens each chunk and keeps a
certified lower bound of the least gap.  ``sample_cone_points`` moves the
same chunks into sample-major stacks, and ``amgm_trace_gap_batch`` takes the
gap from their eigenvalues, the reference that the screen is held to.

The spectrum functions broadcast over leading axes: an input of shape
``(..., n)`` is treated as a stack of spectra; the trace-form gap takes
stacks of shape ``(..., n, n)``.  Everything here is a pure function of its
arguments (the samplers draw from the generator they are given) and safe to
call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .pointwise import ROUNDING, field_cholesky, lower_inverse

__all__ = [
    "hat_transform",
    "is_psh",
    "is_m_subharmonic",
    "is_n1_psh",
    "is_quasi_n1_psh",
    "psh_product_gap",
    "sample_spectra",
    "sample_cone_points",
    "amgm_trace_gap_batch",
    "cone_points_gap_min",
]


def _as_spectra(lam):
    """Validate and return an array of spectra along the last axis."""
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 3:
        raise DomainError(f"eigencone: a spectrum needs at least 3 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("eigencone: spectrum entries must be finite")
    return arr


def hat_transform(lam):
    """Return the hat transform, ``hat(lam)_i = sum(lam) - lam_i``.

    Linear in ``lam``; operates along the last axis.
    """
    arr = _as_spectra(lam)
    return arr.sum(axis=-1, keepdims=True) - arr


def _symmetric_columns(arr, degree):
    """[e_0, ..., e_degree] of the last axis of a validated array of spectra,
    each of the shape of the leading axes.

    The product recurrence, truncated at ``degree``, a column of spectra at
    a time: each e_k takes the same operations whatever the degree, so the
    columns are bitwise those of the full table.
    """
    columns = [np.ones(arr.shape[:-1])] + [np.zeros(arr.shape[:-1]) for _ in range(degree)]
    for i in range(arr.shape[-1]):
        # multiply (x + lam_i) into the coefficients, up to x^degree; from the
        # top down, so that e_(k-1) is still the old one when e_k reads it
        lam = arr[..., i]
        for k in range(min(i + 1, degree), 0, -1):
            columns[k] += lam * columns[k - 1]
    return columns


# The predicates below run a column of spectra at a time: numpy reduces a
# short last axis slowly.  Minima and maxima are exact, and rounding is
# monotone, so ``min_i (s - lam_i)`` is ``s - max_i lam_i`` bit for bit.

_SLACK = 1e-12  # rounding slack of the m-subharmonic and hat-positive tests


def _column_extreme(arr, pick):
    """``pick`` (np.minimum or np.maximum) over the last axis, column by column."""
    out = arr[..., 0].copy()
    for i in range(1, arr.shape[-1]):
        pick(out, arr[..., i], out=out)
    return out


def is_psh(lam):
    """Membership in the plurisubharmonic cone: min lam_i >= 0."""
    return _column_extreme(_as_spectra(lam), np.minimum) >= 0.0


def is_m_subharmonic(lam, m):
    """Membership in the m-subharmonic cone: e_k >= -_SLACK for k = 1..m."""
    arr = _as_spectra(lam)
    n = arr.shape[-1]
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n):
        raise DomainError(f"eigencone.is_m_subharmonic: m={m!r} is not an integer in 1..{n}")
    inside = True
    for e_k in _symmetric_columns(arr, m)[1:]:
        inside = inside & (e_k >= -_SLACK)
    return inside


def is_n1_psh(lam):
    """Membership in the hat-positive cone: min hat(lam)_i >= -_SLACK."""
    arr = _as_spectra(lam)
    return arr.sum(axis=-1) - _column_extreme(arr, np.maximum) >= -_SLACK


def is_quasi_n1_psh(lam, gamma, tolerance=0.0):
    """Quasi membership relative to background eigenvalues ``gamma``.

    Requires ``hat(lam)_i >= -(n-1) * gamma_i - tolerance`` for every i.
    """
    arr = _as_spectra(lam)
    g = np.asarray(gamma, dtype=float)
    if g.shape[-1:] != arr.shape[-1:]:
        raise DomainError("eigencone.is_quasi_n1_psh: gamma/spectrum size mismatch")
    if not (np.all(np.isfinite(g)) and np.all(g > 0)):
        raise DomainError("eigencone.is_quasi_n1_psh: gamma entries must be finite and positive")
    n = arr.shape[-1]
    total = arr.sum(axis=-1)
    inside = True
    for i in range(n):
        inside = inside & (total - arr[..., i] >= -(n - 1) * g[..., i] - tolerance)
    return inside


def psh_product_gap(lam):
    """Product comparison gap for an omega-psh spectrum.

    For ``1 + lam_i >= 0`` returns
    ``prod(1 + hat(lam)_i/(n-1)) - prod(1 + lam_i)``, which is nonnegative:
    each shifted hat entry is the arithmetic mean of the other ``1 + lam_j``.
    """
    arr = _as_spectra(lam)
    n = arr.shape[-1]
    if np.any(arr < -1 - 1e-15):
        raise DomainError("eigencone.psh_product_gap: needs 1 + lam_i >= 0")
    lhs = (1.0 + hat_transform(arr) / (n - 1)).prod(axis=-1)
    rhs = (1.0 + arr).prod(axis=-1)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Randomized sampling helpers used by the property suites and the CLI audits.
# ---------------------------------------------------------------------------


def _check_sampling(name, count, n):
    """DomainError unless integers ``count >= 0`` and ``n >= 3``."""
    integers = all(isinstance(v, (int, np.integer)) for v in (count, n))
    if not (integers and count >= 0 and n >= 3):
        raise DomainError(f"eigencone.{name}: need integers count >= 0 and n >= 3, got count={count}, n={n}")


def sample_spectra(rng, count, n):
    """Uniform random spectra on [-3, 3) of shape (count, n)."""
    _check_sampling("sample_spectra", count, n)
    return rng.uniform(-3.0, 3.0, size=(count, n))


# Samples per chunk of the cone-point sampling and of the AM-GM minimum, so
# that their temporaries stay a few chunks in size.
_CHUNK = 4096


def _chunks(count):
    """Slices of ``range(count)`` in runs of ``_CHUNK``."""
    return [slice(start, min(start + _CHUNK, count)) for start in range(0, count, _CHUNK)]


def _dot(u, v):
    """``sum_k u[k] v[k]`` of two real component-major ``(n, size)`` fields."""
    return np.einsum("kp,kp->p", u, v)


def _trace_w(inv, x):
    """``tr_omega x = sum_k (M x M^H)_kk`` of a Hermitian component-major
    field x, read from its lower triangle, for ``M = L^-1`` of ``omega = L
    L^H`` (``pointwise.lower_inverse``)."""
    total = 0.0
    for k in range(x.shape[0]):
        for i in range(k + 1):
            m = inv[k, i]
            total = total + (m * m.conj()).real * x[i, i].real
            for j in range(i):
                total = total + 2 * (m * x[i, j] * inv[k, j].conj()).real
    return total


def _cone_point_chunks(rng, count, n):
    """The triples of ``sample_cone_points(rng, count, n)``, ``_CHUNK``
    samples at a time, as ``(beta, omega, hess)``: component-major ``(n, n,
    size)`` views of three buffers that the next chunk overwrites.

    Each chunk draws six pieces of ``(size, n, n)`` normals: the real and
    then the imaginary parts of the Gaussian matrices a of beta, omega and
    alpha.  The stream does not depend on the size of the pieces, so ``rng``
    ends where one whole-batch draw of the ``6 count n^2`` normals leaves it.
    Each Gram ``a a^H / n`` is formed entry by entry in real arithmetic over
    the lower triangle, the upper one its conjugate, and ``s = tr(omega^-1
    S)`` is ``_trace_w`` of the Cholesky inverse of omega.
    """
    piece = np.empty((min(count, _CHUNK), n, n))
    parts = np.empty((2, n, n, len(piece)))  # real and imaginary parts of a
    buffers = [np.empty((n, n, len(piece)), dtype=complex) for _ in range(3)]
    for chunk in _chunks(count):
        size = chunk.stop - chunk.start
        x, y = parts[..., :size]
        beta, omega, hess = (b[..., :size] for b in buffers)
        # hess holds alpha first: PSD, occasionally near-singular
        for out in (beta, omega, hess):
            for part in (x, y):
                rng.standard_normal(out=piece[:size])
                part[...] = piece[:size].transpose(1, 2, 0)
            for i in range(n):
                out.real[i, i] = _dot(x[i], x[i]) + _dot(y[i], y[i])
                out.imag[i, i] = 0.0
                for j in range(i):
                    out.real[i, j] = _dot(x[i], x[j]) + _dot(y[i], y[j])
                    out.imag[i, j] = _dot(y[i], x[j]) - _dot(x[i], y[j])
                    np.conjugate(out[i, j], out=out[j, i])
            out /= n
        for i in range(n):
            beta.real[i, i] += 0.2  # positive definite
            omega.real[i, i] += 0.2
        hess -= beta  # S
        s = _trace_w(lower_inverse(field_cholesky(omega)[0]), hess)
        hess *= 1 - n
        hess += s * omega
        yield beta, omega, hess


def sample_cone_points(rng, count, n):
    """Random (beta, omega, hess) batches whose alpha form is PSD.

    Draws positive definite beta and omega (Gram matrices of complex
    Gaussian matrices plus 0.2 I) and a PSD target alpha (a Gram matrix),
    then inverts the linear hat map to find the Hessian realizing that
    alpha: with ``S = alpha - beta`` and ``s = tr(omega^{-1} S)``, the matrix
    ``hess = s * omega - (n - 1) * S`` reproduces alpha exactly.
    Returns a dict with keys beta, omega, hess.

    The triples are built in closed form ``_CHUNK`` samples at a time
    (``_cone_point_chunks``), each component-major chunk moved into the
    three sample-major ``(count, n, n)`` stacks.  The audits screen the same
    chunks without forming the stacks (``cone_points_gap_min``).
    """
    _check_sampling("sample_cone_points", count, n)
    stacks = [np.empty((count, n, n), dtype=complex) for _ in range(3)]
    for chunk, triple in zip(_chunks(count), _cone_point_chunks(rng, count, n)):
        for stack, part in zip(stacks, triple):
            stack[chunk] = np.moveaxis(part, -1, 0)
    return dict(zip(("beta", "omega", "hess"), stacks))


def _batched_alpha(beta, omega, hess):
    """alpha = beta + ((tr_omega hess) * omega - hess) / (n - 1) for stacked
    ``(..., n, n)`` triples."""
    n = beta.shape[-1]
    tr = np.trace(np.linalg.solve(omega, hess), axis1=-2, axis2=-1).real
    return beta + (tr[..., None, None] * omega - hess) / (n - 1)


def _batched_endomorphism_eigs(alpha, omega):
    """Eigenvalues of omega^{-1} alpha for stacked pairs, ascending.

    Reduces the pencil (alpha, omega) by a Cholesky congruence
    ``A = L^{-1} alpha L^{-H}`` with ``omega = L L^H``; the eigenvalues of the
    Hermitian matrix A are those of omega^{-1} alpha.  Avoids forming the
    (generally non-Hermitian) product explicitly.
    """
    L = np.linalg.cholesky(omega)
    y = np.linalg.solve(L, alpha)
    a = np.conj(np.swapaxes(np.linalg.solve(L, np.conj(np.swapaxes(y, -1, -2))), -1, -2))
    return np.linalg.eigvalsh(a)


def amgm_trace_gap_batch(beta, omega, hess):
    """Vectorized trace-form AM-GM gap over stacked Hermitian triples, from
    the eigenvalues of ``omega^{-1} alpha`` clipped at 0: the exact gap that
    the radius of ``_screened_gaps`` is measured against."""
    n = beta.shape[-1]
    alpha = _batched_alpha(beta, omega, hess)
    eigs = np.clip(_batched_endomorphism_eigs(alpha, omega), 0.0, None)
    return eigs.sum(axis=-1) - n * np.prod(eigs, axis=-1) ** (1.0 / n)


# ---------------------------------------------------------------------------
# Certified lower bound of the least AM-GM gap: a closed-form screen of every
# sample.
# ---------------------------------------------------------------------------


def _screened_gaps(beta, omega, hess):
    """Closed-form AM-GM gaps g of component-major ``(n, n, N)`` triples,
    radii r with ``|g - gap| <= r`` for the exact gap of each given triple,
    and the mask of the samples where omega and alpha pass their pivot tests
    (r holds only there).  The exact gap is ``sum l - n (prod l)^(1/n)`` over
    the eigenvalues l of ``omega^{-1} alpha`` clipped at 0, which
    ``amgm_trace_gap_batch`` computes with LAPACK; ``g - r`` is a certified
    lower bound of it.

    With the Cholesky factor ``omega = L L^H`` (pivots ``L_kk^2``) and
    ``M = L^{-1}`` (``pointwise.field_cholesky`` and ``lower_inverse``),
    ``tr_omega X = sum_k (M X M^H)_kk``, and
    ``g = tr_omega beta + tr_omega hess - n ratio^(1/n)`` with ``ratio =
    det alpha / det omega = prod_k (L^alpha_kk / L_kk)^2`` from two Cholesky.
    The first two terms equal ``tr_omega alpha`` through the hat map's trace
    identity alone, while ratio is read from the alpha formed here; so,
    unlike the clipped gap, g turns negative when that alpha is formed with
    a wrong map, and an alpha that is not positive definite fails its pivot
    test.

    **The radius.**  ``nu = tr omega^{-1} = sum_k |M_k|^2`` (rows of M) bounds
    ``|omega^{-1}|_2``, and ``kappa = nu |omega|_F`` bounds cond_2(omega).
    In the frame where omega = I (``X -> G X G^H``, ``G = M``,
    ``|G|_2^2 <= nu``), ``scale = nu (|beta|_F + |tr_omega hess| |omega|_F +
    |hess|_F)`` bounds the norms of beta, hess and alpha.  Every step (the
    Cholesky factorizations, the substitutions and forming alpha) is
    backward stable, with an error of a few ``n eps`` relative to its
    operands (Higham 2002, ch. 8-10).  In the omega = I frame an error E of
    an operand costs at most ``nu |E|_F``, and a relative error of omega is
    multiplied by kappa.  So the screen finds the sum and product of the
    eigenvalues lambda_k of ``omega^{-1} alpha`` as if from a matrix within
    ``delta = C n^3 eps kappa scale`` of the exact one (Weyl), with
    ``C = pointwise.ROUNDING`` for the sum of the steps' constants.  Where
    alpha passes its pivot test, every ``lambda_k >= -delta``, so every
    ``|lambda_k| <= top = |tr_omega alpha| + 2 n delta``.  Then:

    * the screen's trace is within ``n delta`` of ``sum lambda_k``, and the
      clip at 0 of the exact gap moves that by at most ``n delta`` more;
    * ``ratio`` is within ``n delta (top + delta)^(n-1)`` of
      ``prod max(lambda_k, 0)``, so within ``spread = 2 n delta (top +
      delta)^(n-1)``.  For x, y >= 0, ``|x^(1/n) - y^(1/n)|`` is at most
      ``|x - y|^(1/n)``, and at most ``|x - y| / (n m^((n-1)/n))`` when both
      are at least m > 0 (mean value theorem); here ``m = ratio - spread``.
      A near-zero eigenvalue thus turns the error delta into up to about
      ``delta^(1/n) top^((n-1)/n)``.

    So ``r = 4 n delta + n min(spread^(1/n), spread / (n max(ratio - spread,
    0)^((n-1)/n)))``, whose linear term and spread are twice what the screen
    alone needs.  A loose radius only lowers the certified bound: on the
    10^5-sample streams of ``n1ma cones`` at seeds 0-19, ``|g -
    amgm_trace_gap_batch|`` is below ``1e-6 r`` and r below 0.06.

    **Memory.**  Each sample's outputs depend on it alone, so
    ``cone_points_gap_min`` passes one chunk's component-major fields as
    ``_cone_point_chunks`` builds them, with no copy or transpose.  Every
    temporary is an entry field of the chunk's size: the two factors, M and
    the lower triangle of alpha, which is all ``field_cholesky`` reads.
    """
    n = omega.shape[0]
    triangle = [(i, j) for i in range(n) for j in range(i + 1)]
    factor, ok = field_cholesky(omega)
    inv = lower_inverse(factor)  # M_kk = 1 / L_kk, so only M is kept
    del factor

    def frobenius(x):  # |x|_F of every matrix, from all its entries
        return np.sqrt(sum(np.einsum("ijp,ijp->p", c, c) for c in (x.real, x.imag)))

    tr_beta, tr_hess = _trace_w(inv, beta), _trace_w(inv, hess)
    alpha = np.empty(omega.shape, np.result_type(beta, omega, hess))  # upper triangle unread
    for i, j in triangle:
        alpha[i, j] = beta[i, j] + (tr_hess * omega[i, j] - hess[i, j]) / (n - 1)
    factor_alpha, ok_alpha = field_cholesky(alpha)
    ratio = 1.0
    for k in range(n):
        ratio = ratio * (factor_alpha[k, k] * inv[k, k]) ** 2
    gap = tr_beta + tr_hess - n * ratio ** (1.0 / n)

    nu = sum((inv[ij] * inv[ij].conj()).real for ij in triangle)
    norm_w = frobenius(omega)
    scale = nu * (frobenius(beta) + np.abs(tr_hess) * norm_w + frobenius(hess))
    delta = ROUNDING * n**3 * np.finfo(float).eps * (nu * norm_w) * scale
    top = np.abs(tr_beta + tr_hess) + 2 * n * delta
    spread = 2 * n * delta * (top + delta) ** (n - 1)
    floor = np.maximum(ratio - spread, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.minimum(spread ** (1.0 / n), spread / (n * floor ** ((n - 1) / n)))
    radius = 4 * n * delta + n * root
    return gap, radius, ok & ok_alpha


def cone_points_gap_min(rng, count, n):
    """A certified lower bound of the least trace-form AM-GM gap of the
    triples of ``sample_cone_points(rng, count, n)``: the least ``g - r`` of
    ``_screened_gaps`` over the chunks of ``_cone_point_chunks``, as a float.
    A sample that fails a pivot test (omega or alpha not numerically
    positive definite), or whose bound is not finite (NaN entries), counts
    as -inf; no samples give +inf.  ``rng`` ends where ``sample_cone_points``
    leaves it.

    The bound is at most ``amgm_trace_gap_batch`` of every sample.  On the
    sampler's triples, whose hess realizes a PSD alpha through the hat map,
    it reads at least 0.043 at seeds 0-19 of ``n1ma cones`` (10^5 samples);
    triples built with a wrong hat map make it negative.  Each chunk is
    screened and dropped, so the three ``(count, n, n)`` stacks are never
    formed and the memory taken does not grow with ``count``.
    """
    _check_sampling("cone_points_gap_min", count, n)
    least = np.inf
    for triple in _cone_point_chunks(rng, count, n):
        gap, radius, ok = _screened_gaps(*triple)
        bound = np.subtract(gap, radius, out=gap)
        bound[~(ok & np.isfinite(bound))] = -np.inf
        least = min(least, float(bound.min()))
    return least
