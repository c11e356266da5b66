"""Pointwise eigenvalue calculus for the hat-transform cone hierarchy.

A *spectrum* is a 1-D array of n >= 3 real Hessian eigenvalues.  The central
object is the linear hat transform

    hat(lam)_i = sum_k lam_k - lam_i,

which turns the positivity condition "(Delta u) * omega - dd^c u >= 0" into
entrywise inequalities on hat(lam).  The module provides the cone membership
predicates built from it (psh, m-subharmonic, hat-psh and the quasi variant
relative to a background metric) and the two arithmetic-geometric-mean
comparison gaps of the audits: the product gap of an omega-psh spectrum, and
the trace-form gap ``tr_omega alpha - n (det_omega alpha)^(1/n)`` of stacked
``(beta, omega, hess)`` matrix triples, with alpha from the hat map.  The
audits' random triples are built a chunk of samples at a time:
``cone_points_gap_min`` screens each chunk in closed form and keeps a
certified lower bound of the least trace-form gap without forming the
stacks.  ``sample_cone_points`` copies the same chunks into stacks, and
``amgm_trace_gap_batch`` takes the gap from the eigenvalues themselves, the
reference that the screen is held to.

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
    if not 1 <= int(m) <= n:
        raise DomainError(f"eigencone.is_m_subharmonic: m={m} outside 1..{n}")
    inside = True
    for e_k in _symmetric_columns(arr, int(m))[1:]:
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
    """DomainError unless ``count >= 0`` samples of dimension ``n >= 3``."""
    if count < 0 or n < 3:
        raise DomainError(f"eigencone.{name}: need count >= 0 and n >= 3, got count={count}, n={n}")


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


def _gram(rng, piece, gauss, out):
    """``out = a a^H / n`` for a stack ``a`` of complex Gaussian ``(n, n)``
    matrices whose real and then imaginary parts ``rng`` draws, formed in
    ``gauss`` through the float buffer ``piece`` (numpy draws into no strided
    ``gauss.real``); one BLAS call per matrix."""
    for component in (gauss.real, gauss.imag):
        rng.standard_normal(out=piece)
        component[...] = piece
    np.matmul(gauss, np.conj(np.swapaxes(gauss, -1, -2)), out=out)
    out /= out.shape[-1]


def _cone_point_chunks(rng, count, n):
    """The triples of ``sample_cone_points(rng, count, n)``, a run of
    ``_CHUNK`` samples at a time, as ``(beta, omega, hess)``: views of three
    chunk buffers that the next chunk overwrites.

    Each chunk draws six pieces of ``size n^2`` normals from ``rng``: the real
    and then the imaginary parts of the Gaussian matrices of beta, of omega
    and of alpha.  The stream of normals does not depend on the size of the
    pieces, so ``rng`` ends where one whole-batch draw of all ``6 count n^2``
    normals leaves it, and the draws that follow see the same numbers.
    """
    piece = np.empty((min(count, _CHUNK), n, n))
    gauss = np.empty(piece.shape, dtype=complex)
    buffers = [np.empty(gauss.shape, dtype=complex) for _ in range(3)]
    for chunk in _chunks(count):
        size = chunk.stop - chunk.start
        beta, omega, hess = (x[:size] for x in buffers)
        # hess holds alpha first: PSD, occasionally near-singular
        for out in (beta, omega, hess):
            _gram(rng, piece[:size], gauss[:size], out)
        beta += 0.2 * np.eye(n)  # positive definite
        omega += 0.2 * np.eye(n)
        hess -= beta  # S
        s = np.trace(np.linalg.solve(omega, hess), axis1=-2, axis2=-1).real
        hess *= n - 1
        np.subtract(np.multiply(s[:, None, None], omega, out=gauss[:size]), hess, out=hess)
        yield beta, omega, hess


def sample_cone_points(rng, count, n):
    """Random (beta, omega, hess) batches whose alpha form is PSD.

    Draws positive definite beta and omega (Gram matrices of complex
    Gaussian matrices plus 0.2 I) and a PSD target alpha (a Gram matrix),
    then inverts the linear hat map to find the Hessian realizing that
    alpha: with ``S = alpha - beta`` and ``s = tr(omega^{-1} S)``, the matrix
    ``hess = s * omega - (n - 1) * S`` reproduces alpha exactly.
    Returns a dict with keys beta, omega, hess.

    The triples are drawn and built a chunk of ``_CHUNK`` samples at a time
    (``_cone_point_chunks``), each chunk copied into the three
    ``(count, n, n)`` stacks, so the temporaries are a few chunks in size.
    The audits screen the same chunks without forming the stacks
    (``cone_points_gap_min``).
    """
    _check_sampling("sample_cone_points", count, n)
    stacks = [np.empty((count, n, n), dtype=complex) for _ in range(3)]
    for chunk, triple in zip(_chunks(count), _cone_point_chunks(rng, count, n)):
        for stack, part in zip(stacks, triple):
            stack[chunk] = part
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


def _abs2(z):
    return (z * z.conj()).real


def _screened_gaps(beta, omega, hess):
    """Closed-form AM-GM gaps g of stacked ``(N, n, n)`` triples, radii r
    with ``|g - gap| <= r`` for the exact gap of each given triple, and the
    mask of the samples where omega and alpha pass their pivot tests (r
    holds only there).  The exact gap is ``sum l - n (prod l)^(1/n)`` over
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
    0)^((n-1)/n)))``.  The formula was first derived for the distance between
    the screen's gap and LAPACK's, each within the bounds above of the exact
    one, so for the screen alone its linear term and its spread are twice
    what is needed.  A loose radius only lowers the certified bound: on the
    10^5-sample streams of ``n1ma cones`` the largest ``|g -
    amgm_trace_gap_batch|`` is below ``1e-6 r`` and the largest r below
    0.05, and on batches of alphas of every rank at scales 1e-3..1e3 the
    error is below ``0.02 r``.

    **Memory.**  Every output of a sample depends on that sample alone, so
    ``cone_points_gap_min`` passes a chunk of samples at a time, and every
    temporary is a field of the chunk's size: the two factors, M, and
    alpha, of which only the lower triangle that ``field_cholesky`` reads
    is formed.
    """
    n = omega.shape[-1]
    triangle = [(i, j) for i in range(n) for j in range(i + 1)]
    b, w, h = (np.moveaxis(x, 0, -1) for x in (beta, omega, hess))
    factor, ok = field_cholesky(w)
    inv = lower_inverse(factor)  # M_kk = 1 / L_kk, so only M is kept
    del factor

    def trace_w(x):
        total = 0.0
        for k, i in triangle:
            m = inv[k, i]
            total = total + _abs2(m) * x[i, i].real
            for j in range(i):
                total = total + 2 * (m * x[i, j] * inv[k, j].conj()).real
        return total

    def frobenius(x):
        """``|x|_F`` of every matrix of a sample-major stack, in one
        contiguous pass over its real components."""
        flat = x.reshape(len(x), -1)
        flat = flat.view(flat.real.dtype)
        return np.sqrt(np.einsum("ij,ij->i", flat, flat))

    tr_beta, tr_hess = trace_w(b), trace_w(h)
    alpha = np.empty(w.shape, np.result_type(b, w, h))  # upper triangle unread
    for i, j in triangle:
        alpha[i, j] = b[i, j] + (tr_hess * w[i, j] - h[i, j]) / (n - 1)
    factor_alpha, ok_alpha = field_cholesky(alpha)
    ratio = 1.0
    for k in range(n):
        ratio = ratio * (factor_alpha[k, k] * inv[k, k]) ** 2
    gap = tr_beta + tr_hess - n * ratio ** (1.0 / n)

    nu = sum(_abs2(inv[ij]) for ij in triangle)
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
    it read at least 0.043 at seeds 0-19 of ``n1ma cones`` (10^5 samples);
    triples built with a wrong hat map make it negative.  Each chunk is screened and dropped, so the three
    ``(count, n, n)`` stacks are never formed and the memory taken does not
    grow with ``count``.
    """
    _check_sampling("cone_points_gap_min", count, n)
    least = np.inf
    for triple in _cone_point_chunks(rng, count, n):
        gap, radius, ok = _screened_gaps(*triple)
        bound = np.subtract(gap, radius, out=gap)
        bound[~(ok & np.isfinite(bound))] = -np.inf
        least = min(least, float(bound.min()))
    return least
