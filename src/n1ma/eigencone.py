"""Pointwise eigenvalue calculus for the hat-transform cone hierarchy.

A *spectrum* is a 1-D array of n >= 3 real Hessian eigenvalues.  The central
object is the linear hat transform

    hat(lam)_i = sum_k lam_k - lam_i,

which turns the positivity condition "(Delta u) * omega - dd^c u >= 0" into
entrywise inequalities on hat(lam).  The module provides the cone membership
predicates built from it (psh, m-subharmonic, hat-psh and the quasi variant
relative to a background metric), the hat determinant ``ma_hat``, and the two
arithmetic-geometric-mean comparison gaps of the audits: the product gap of
an omega-psh spectrum, and the trace-form gap of ``det(omega^-1 alpha_u)``
over stacked ``(beta, omega, hess)`` matrix triples with a certified minimum.

The spectrum functions broadcast over leading axes: an input of shape
``(..., n)`` is treated as a stack of spectra; the trace-form gap takes
stacks of shape ``(..., n, n)``.  Everything here is a pure function of its
arguments and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .pointwise import ROUNDING, certified_max, field_cholesky, lower_inverse

__all__ = [
    "hat_transform",
    "sigma_k",
    "is_psh",
    "is_m_subharmonic",
    "is_n1_psh",
    "is_quasi_n1_psh",
    "ma_hat",
    "psh_product_gap",
    "sample_spectra",
    "sample_cone_points",
    "amgm_trace_gap_batch",
    "amgm_trace_gap_min",
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


def _elementary_symmetric(arr, degree):
    """e_0..e_degree of the last axis of a validated array of spectra.

    The product recurrence, truncated at ``degree``: each e_k takes the same
    operations whatever the degree, so the columns are bitwise those of the
    full table.
    """
    out = np.zeros(arr.shape[:-1] + (degree + 1,), dtype=float)
    out[..., 0] = 1.0
    for i in range(arr.shape[-1]):
        # multiply prod_{j<=i} (x + lam_j) into the coefficient table, up to x^degree
        top = min(i + 1, degree)
        out[..., 1 : top + 1] += arr[..., i : i + 1] * out[..., 0:top].copy()
    return out


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial e_k(lam), 1 <= k <= n."""
    arr = _as_spectra(lam)
    n = arr.shape[-1]
    if not 1 <= int(k) <= n:
        raise DomainError(f"eigencone.sigma_k: k={k} outside 1..{n}")
    return _elementary_symmetric(arr, int(k))[..., int(k)]


def is_psh(lam):
    """Membership in the plurisubharmonic cone: min lam_i >= 0."""
    return _as_spectra(lam).min(axis=-1) >= 0.0


def is_m_subharmonic(lam, m, tolerance=0.0):
    """Membership in the m-subharmonic cone: e_k >= -tolerance for k = 1..m."""
    arr = _as_spectra(lam)
    n = arr.shape[-1]
    if not 1 <= int(m) <= n:
        raise DomainError(f"eigencone.is_m_subharmonic: m={m} outside 1..{n}")
    return (_elementary_symmetric(arr, int(m))[..., 1:] >= -tolerance).all(axis=-1)


def is_n1_psh(lam, tolerance=0.0):
    """Membership in the hat-positive cone: min hat(lam)_i >= -tolerance."""
    return hat_transform(lam).min(axis=-1) >= -tolerance


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
    return (hat_transform(arr) >= -(n - 1) * g - tolerance).all(axis=-1)


def ma_hat(lam):
    """Determinant of the hat transform: prod_i (sum(lam) - lam_i)."""
    return hat_transform(lam).prod(axis=-1)


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


def sample_spectra(rng, count, n):
    """Uniform random spectra on [-3, 3) of shape (count, n)."""
    return rng.uniform(-3.0, 3.0, size=(count, n))


# Samples per chunk of the per-sample work of the cone-point sampling and the
# AM-GM screen, so that their temporaries stay a few chunks in size.
_CHUNK = 4096


def _chunks(count):
    """Slices of ``range(count)`` in runs of ``_CHUNK``."""
    return [slice(start, min(start + _CHUNK, count)) for start in range(0, count, _CHUNK)]


def _random_gram(rng, count, n):
    """``a a^H / n`` for a stack ``a`` of ``(count, n, n)`` complex Gaussian
    matrices, in a's own buffer.

    The real parts are drawn first and then the imaginary parts, in the order
    of two whole-batch draws, a chunk of samples at a time through one
    chunk-sized float buffer (numpy draws into no strided ``out.real``); the
    products are formed a chunk of samples at a time (one BLAS call per
    matrix, as over the whole stack)."""
    out = np.empty((count, n, n), dtype=complex)
    part = np.empty((min(count, _CHUNK), n, n))
    for component in (out.real, out.imag):
        for chunk in _chunks(count):
            piece = part[: chunk.stop - chunk.start]
            rng.standard_normal(out=piece)
            component[chunk] = piece
    del part
    for chunk in _chunks(count):
        a = out[chunk]
        np.divide(a @ np.conj(np.swapaxes(a, -1, -2)), n, out=a)
    return out


def _random_hpd(rng, count, n):
    """A random Gram stack plus 0.2 I, so every matrix is positive definite."""
    out = _random_gram(rng, count, n)
    out += 0.2 * np.eye(n)
    return out


def sample_cone_points(rng, count, n):
    """Random (beta, omega, hess) batches whose alpha form is PSD.

    Draws positive definite beta and omega and a PSD target alpha, then
    inverts the linear hat map to find the Hessian realizing that alpha:
    with ``S = alpha - beta`` and ``s = tr(omega^{-1} S)``, the matrix
    ``hess = s * omega - (n - 1) * S`` reproduces alpha exactly.
    Returns a dict with keys beta, omega, hess.

    Only the three returned ``(count, n, n)`` stacks stay alive: alpha is
    drawn into the buffer that becomes S and then hess, and every step runs
    on chunks of samples, so the temporaries are a few chunks in size.
    """
    beta = _random_hpd(rng, count, n)
    omega = _random_hpd(rng, count, n)
    hess = _random_gram(rng, count, n)  # alpha: PSD, occasionally near-singular
    for chunk in _chunks(count):
        s_mat = hess[chunk]
        s_mat -= beta[chunk]
        s = np.trace(np.linalg.solve(omega[chunk], s_mat), axis1=-2, axis2=-1).real
        s_mat *= n - 1
        np.subtract(s[:, None, None] * omega[chunk], s_mat, out=s_mat)
    return {"beta": beta, "omega": omega, "hess": hess}


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
    """Vectorized trace-form AM-GM gap over stacked Hermitian triples."""
    n = beta.shape[-1]
    alpha = _batched_alpha(beta, omega, hess)
    eigs = np.clip(_batched_endomorphism_eigs(alpha, omega), 0.0, None)
    return eigs.sum(axis=-1) - n * np.prod(eigs, axis=-1) ** (1.0 / n)


# ---------------------------------------------------------------------------
# Certified minimum of the batched AM-GM gap: a closed-form screen of every
# sample, and the exact path above on the few samples that can hold the minimum.
# ---------------------------------------------------------------------------


def _abs2(z):
    return (z * z.conj()).real


def _screened_gaps(beta, omega, hess):
    """Closed-form AM-GM gaps g of stacked ``(N, n, n)`` triples, radii r
    with ``|g - amgm_trace_gap_batch| <= r``, and the mask of the samples
    where omega and alpha pass their pivot tests (r holds only there).

    With the Cholesky factor ``omega = L L^H`` (pivots ``L_kk^2``) and
    ``M = L^{-1}`` (``pointwise.field_cholesky`` and ``lower_inverse``),
    ``tr_omega X = sum_k (M X M^H)_kk``, and
    ``g = tr_omega beta + tr_omega hess - n ratio^(1/n)`` with ``ratio =
    det alpha / det omega = prod_k (L^alpha_kk / L_kk)^2`` from two Cholesky.

    **The radius.**  ``nu = tr omega^{-1} = sum_k |M_k|^2`` (rows of M) bounds
    ``|omega^{-1}|_2``, and ``kappa = nu |omega|_F`` bounds cond_2(omega).
    In the frame where omega = I (``X -> G X G^H``, ``G = M``,
    ``|G|_2^2 <= nu``), ``scale = nu (|beta|_F + |tr_omega hess| |omega|_F +
    |hess|_F)`` bounds the norms of beta, hess and alpha.  Every step of
    either path (LU solve, Cholesky, triangular solves and ``eigvalsh``
    there; Cholesky and substitutions here; forming alpha in both) is backward
    stable, with an error of a few ``n eps`` relative to its operands
    (Higham 2002, ch. 8-10; Demmel 1989).  In the omega = I frame an error E
    of an operand costs at most ``nu |E|_F``, and a relative error of omega
    is multiplied by kappa.  So each path finds the eigenvalues lambda_k of
    ``omega^{-1} alpha``, or their sum and product, as if from a matrix
    within ``delta = C n^3 eps kappa scale`` of the exact one (Weyl), with
    ``C = pointwise.ROUNDING`` for the sum of the steps' constants.  Where alpha
    passes its pivot test, every ``lambda_k >= -delta``, so every
    ``|lambda_k| <= top = |tr_omega alpha| + 2 n delta``.  Then:

    * each path's trace is within ``n delta`` of ``sum lambda_k``, and the
      clip at 0 of the exact path moves it by at most ``n delta`` more;
    * each path's product (``ratio`` here, the product of the clipped
      eigenvalues there) is within ``n delta (top + delta)^(n-1)`` of
      ``prod max(lambda_k, 0)``, so the two are within
      ``spread = 2 n delta (top + delta)^(n-1)`` of each other.  For
      x, y >= 0, ``|x^(1/n) - y^(1/n)|`` is at most ``|x - y|^(1/n)``, and at
      most ``|x - y| / (n m^((n-1)/n))`` when both are at least m > 0 (mean
      value theorem); here ``m = ratio - spread``.  A near-zero eigenvalue
      thus turns the error delta into up to about
      ``delta^(1/n) top^((n-1)/n)``.

    So ``r = 4 n delta + n min(spread^(1/n), spread / (n max(ratio - spread,
    0)^((n-1)/n)))``.  A loose radius costs only a few more exact
    evaluations.  On the 10^5-sample streams of ``n1ma cones`` the largest
    ``|g - exact|`` is below ``1e-6 r``, and on batches of alphas of every
    rank at scales 1e-3..1e3 below ``0.02 r``.

    **Memory.**  Every output of a sample depends on that sample alone, so
    ``amgm_trace_gap_min`` passes a chunk of samples at a time, and every
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


def amgm_trace_gap_min(beta, omega, hess):
    """``float(amgm_trace_gap_batch(beta, omega, hess).min())``, bit for bit,
    from the exact path on a few of the samples.

    ``beta``, ``omega`` and ``hess`` are stacked ``(..., n, n)`` arrays of one
    shape.  A closed-form screen (``_screened_gaps``) gives every sample a gap
    g and a radius r, and ``pointwise.certified_max`` maximizes the negated
    exact gap under the bounds ``r - g``, +inf where a pivot test fails
    (omega or alpha not numerically positive definite) or the bound is not
    finite (NaN entries).  LAPACK treats each matrix of a batch on its own,
    so the exact values on a subset are bitwise those of the full batch.
    The screen runs on chunks of ``_CHUNK`` samples into one bound array, so
    it allocates little beyond that array.
    """
    n = np.shape(beta)[-1]
    beta, omega, hess = (np.reshape(x, (-1, n, n)) for x in (beta, omega, hess))

    def exact(points):
        return -amgm_trace_gap_batch(beta[points], omega[points], hess[points]).min()

    bound = np.empty(len(beta))
    for chunk in _chunks(len(beta)):
        gap, radius, ok = _screened_gaps(beta[chunk], omega[chunk], hess[chunk])
        part = np.subtract(radius, gap, out=bound[chunk])
        part[~(ok & np.isfinite(part))] = np.inf
    return -float(certified_max(bound, exact))
