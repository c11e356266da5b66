"""Constant-coefficient (p,q)-form algebra on C^n with the Euclidean Hodge star.

Forms are stored densely on ordered multi-indices: a (p,q)-form is the sum of
``coeffs[I, J] * dz^I wedge dzbar^J`` over strictly increasing index tuples.
The metric form of a Hermitian positive matrix G is ``i * sum G_jk dz^j wedge
dzbar^k``; its top power divided by n! is the volume form.  The star is that
of the Euclidean metric G = I and follows the conventions

    phi wedge star(conj(psi)) = <phi, psi> * vol,
    conj(star(psi)) = star(conj(psi)),
    star(star(psi)) = (-1)^(p+q) * psi,

with the inner product on 1-forms dual to the metric (no extra factor of 2),
under which the basis forms are orthonormal.  Every identity checked here is
pointwise, and at a point every Hermitian metric is the Euclidean one in a
linear frame orthonormal for it, so no other metric is needed.
Dimensions are capped at n <= 6: all index sets stay tiny, so dense storage
and cached sign tables beat any sparse cleverness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError

__all__ = [
    "PQForm",
    "one_one_form",
    "euclidean_metric",
    "hodge_star",
    "hat_identity_residual",
    "frame_value",
    "plucker_margin",
    "weak_positivity_margin",
    "EquivalenceReport",
    "equivalence_suite",
]

_MAX_N = 6


@lru_cache(maxsize=None)
def _combos(n, p):
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def _combo_rank(n, p):
    return {c: i for i, c in enumerate(_combos(n, p))}


def _merge(a, b):
    """Sign and sorted union of two disjoint increasing tuples (0 if overlap)."""
    if set(a) & set(b):
        return 0, None
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1) ** inversions, tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _merge_table(n, p1, p2):
    """Index/sign tables for merging p1- and p2-combos into (p1+p2)-combos."""
    c1, c2 = _combos(n, p1), _combos(n, p2)
    rank = _combo_rank(n, p1 + p2)
    idx = np.full((len(c1), len(c2)), -1, dtype=np.intp)
    sgn = np.zeros((len(c1), len(c2)), dtype=np.int8)
    for a, left in enumerate(c1):
        for b, right in enumerate(c2):
            s, merged = _merge(left, right)
            if s:
                idx[a, b] = rank[merged]
                sgn[a, b] = s
    return idx, sgn


@lru_cache(maxsize=None)
def _complement_table(n, p):
    """For each p-combo: rank of its complement among (n-p)-combos and the
    sign of dz^I wedge dz^comp(I) relative to dz^(1..n): the one (n-p)-combo
    that each row of the merge table merges with, and its sign."""
    _, sgn = _merge_table(n, p, n - p)
    rows, comp_idx = np.nonzero(sgn)
    return comp_idx, sgn[rows, comp_idx]


def _check_bidegree(n, p, q):
    """DomainError unless n, p and q are integers with ``2 <= n <= _MAX_N``
    and ``0 <= p, q <= n``: the combination tables need them."""
    if not all(isinstance(k, (int, np.integer)) for k in (n, p, q)):
        raise DomainError(f"PQForm: n, p and q must be integers, not {n!r}, {p!r}, {q!r}")
    if not 2 <= n <= _MAX_N:
        raise DomainError(f"PQForm: n={n} outside 2..{_MAX_N}")
    if not (0 <= p <= n and 0 <= q <= n):
        raise DomainError(f"PQForm: bidegree ({p},{q}) out of range")


@dataclass(frozen=True)
class PQForm:
    """A (p,q)-form with constant complex coefficients on ordered indices."""

    n: int
    p: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_bidegree(self.n, self.p, self.q)
        want = (len(_combos(self.n, self.p)), len(_combos(self.n, self.q)))
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != want:
            raise DomainError(f"PQForm: coefficient shape {arr.shape}, expected {want}")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, n, p, q):
        _check_bidegree(n, p, q)
        shape = (len(_combos(n, p)), len(_combos(n, q)))
        return cls(n, p, q, np.zeros(shape, dtype=complex))

    @classmethod
    def basis(cls, n, holo, anti):
        """The basis form dz^holo wedge dzbar^anti (indices 0-based, increasing)."""
        holo, anti = tuple(holo), tuple(anti)
        form = cls.zero(n, len(holo), len(anti))
        try:
            row, col = _combo_rank(n, len(holo))[holo], _combo_rank(n, len(anti))[anti]
        except KeyError:
            raise DomainError(
                f"PQForm.basis: indices {holo}, {anti} must increase strictly within 0..{n - 1}"
            ) from None
        form.coeffs[row, col] = 1.0
        return form

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        self._check_same_space(other)
        return PQForm(self.n, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_space(other)
        return PQForm(self.n, self.p, self.q, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return PQForm(self.n, self.p, self.q, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_same_space(self, other):
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise DomainError("PQForm: mixed bidegrees in a linear combination")

    # -- algebra ------------------------------------------------------------

    def wedge(self, other):
        """Graded-commutative exterior product."""
        if self.n != other.n:
            raise DomainError("PQForm.wedge: mismatched ambient dimension")
        p, q = self.p + other.p, self.q + other.q
        if p > self.n or q > self.n:
            raise DomainError("PQForm.wedge: degree overflow")
        idx_h, sgn_h = _merge_table(self.n, self.p, other.p)
        idx_a, sgn_a = _merge_table(self.n, self.q, other.q)
        # term products with the sign from moving other's dz block past our dzbar block
        t = np.einsum("ab,cd->acbd", self.coeffs, other.coeffs)
        t *= sgn_h[:, :, None, None] * sgn_a[None, None, :, :]
        t *= (-1) ** (self.q * other.p)
        out = np.zeros((len(_combos(self.n, p)) + 1, len(_combos(self.n, q)) + 1), dtype=complex)
        np.add.at(
            out,
            (
                np.broadcast_to(idx_h[:, :, None, None], t.shape),
                np.broadcast_to(idx_a[None, None, :, :], t.shape),
            ),
            t,
        )
        return PQForm(self.n, p, q, out[:-1, :-1])  # drop the overlap bin at -1

    def conjugate(self):
        """Complex conjugate form, of bidegree (q, p)."""
        sign = (-1) ** (self.p * self.q)
        return PQForm(self.n, self.q, self.p, sign * self.coeffs.conj().T)

    def is_real(self):
        """Equal to its conjugate up to 1e-9 relative to ``max(1, max_norm)``."""
        if self.p != self.q:
            return False
        scale = max(1.0, self.max_norm())
        return bool(np.abs(self.conjugate().coeffs - self.coeffs).max() <= 1e-9 * scale)

    def max_norm(self):
        return float(np.abs(self.coeffs).max())


def one_one_form(matrix):
    """The (1,1)-form ``i * sum matrix[j,k] dz^j wedge dzbar^k``."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("forms.one_one_form: need a square matrix")
    return PQForm(m.shape[0], 1, 1, 1j * m)


def euclidean_metric(n):
    _check_bidegree(n, 1, 1)
    return one_one_form(np.eye(n))


@lru_cache(maxsize=None)
def _euclidean_power(n, k):
    """omega^k for the euclidean metric, computed by the wedge chain."""
    omega = euclidean_metric(n)
    out = PQForm.basis(n, (), ())
    for _ in range(k):
        out = out.wedge(omega)
    return out


@lru_cache(maxsize=None)
def _euclidean_volume_coefficient(n):
    """Coefficient of omega^n/n! on dz^(1..n) wedge dzbar^(1..n), euclidean."""
    top = _euclidean_power(n, n)
    return complex(top.coeffs[0, 0]) / math.factorial(n)


@lru_cache(maxsize=None)
def _combo_array(n, p):
    """The p-combos of range(n) as a (C(n, p), p) index array."""
    return np.array(_combos(n, p), dtype=np.intp).reshape(-1, p)


def hodge_star(a):
    """Euclidean Hodge star of a (p,q)-form, a (n-q, n-p)-form.

    Determined by ``phi wedge star(a) = <phi, conj(a)> vol`` over all
    (q,p)-forms phi.  The basis forms are orthonormal and each pairs with
    exactly one complementary basis form, so the star is one signed
    permutation of the transposed coefficients, times the volume
    coefficient.  The sign is (-1)^(pn) times the two complement signs:
    (-1)^(pq) from the conjugation and (-1)^(p(n-q)) from the wedge with
    the complementary basis form.
    """
    n, p, q = a.n, a.p, a.q
    comp_h, sgn_h = _complement_table(n, q)
    comp_a, sgn_a = _complement_table(n, p)
    sign = sgn_h[:, None] * sgn_a[None, :] * (-1) ** (p * n)
    out = PQForm.zero(n, n - q, n - p)
    out.coeffs[np.ix_(comp_h, comp_a)] = a.coeffs.T * (sign * _euclidean_volume_coefficient(n))
    return out


def hat_identity_residual(h, n):
    """Max-norm residual of the star identity linking the hat operator to
    the wedge with omega^(n-2).

    For the constant (1,1)-form ``form`` with Hermitian coefficient matrix
    ``h`` and the euclidean metric form omega, the identity is

        star(form wedge omega^(n-2)) / (n-1)! = ((tr h) omega - form) / (n-1),

    and the residual is the max norm of the difference of its two sides.
    """
    h = np.asarray(h, dtype=complex)
    if n < 3:
        raise DomainError("forms.hat_identity_residual: need n >= 3")
    if h.shape != (n, n) or not np.allclose(h, h.conj().T):
        raise DomainError("forms.hat_identity_residual: h must be n x n Hermitian")
    form = one_one_form(h)
    omega = euclidean_metric(n)
    lhs = hodge_star(form.wedge(_euclidean_power(n, n - 2))) * (
        1.0 / math.factorial(n - 1)
    )
    rhs = (np.trace(h).real * omega - form) * (1.0 / (n - 1))
    return (lhs - rhs).max_norm()


# ---------------------------------------------------------------------------
# Weak positivity by frame sampling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame_phase(n):
    """Unit relating frame minors to the frame multivector, for k = n - 1.

    The multivector of a frame is prod_j (i v^j wedge conj(v^j)), a product
    of k even factors sum_ab i v^j_a conj(v^j_b) e_a wedge ebar_b.  Moving each
    ebar past the later e's to reach e_(a1..ak) wedge ebar_(b1..bk) takes
    (k-1) + ... + 1 = k(k-1)/2 transpositions, and the antisymmetrized sums
    over the a's and the b's are the maximal minors (Cauchy-Binet), so

        mu[I, J] = i^k (-1)^(k(k-1)/2) det V[:, I] conj(det V[:, J]):

    the phase is 1 for k even (n = 3, 5) and i for k odd (n = 4, 6).
    """
    k = n - 1
    return 1j**k * (-1) ** (k * (k - 1) // 2)


def _plucker_matrix(psi):
    """Hermitian n x n matrix P whose quadratic form ``sum_IJ P[I, J] d_I
    conj(d_J)`` over the maximal minors d of a frame is the frame value.

    The raw index pairing of psi with a multivector differs from the
    positively oriented wedge pairing by i^(2k) = (-1)^k, k = n - 1.
    """
    n = psi.n
    return (-1) ** (n - 1) * _frame_phase(n) * psi.coeffs


def _frame_values(psi, frames):
    """Normalized values of a (n-1,n-1)-form on an ``(F, n-1, n)`` stack of
    frames: one batched ``det`` for the maximal minors, one ``einsum``."""
    n = psi.n
    idx = _combo_array(n, n - 1)
    minors = np.linalg.det(np.moveaxis(frames[:, :, idx], 2, 1))  # (F, n)
    raw = np.einsum("fi,ij,fj->f", minors, _plucker_matrix(psi), minors.conj()).real
    norm2 = np.prod(np.einsum("fkj,fkj->fk", frames.conj(), frames).real, axis=1)
    return np.divide(raw, norm2, out=np.zeros_like(raw), where=norm2 != 0.0)


def _check_samples(samples, where):
    if samples < 0:
        raise DomainError(f"forms.{where}: samples={samples} is negative")


def _as_frame(vectors, n, where):
    frame = np.asarray(vectors, dtype=complex)
    if frame.shape != (n - 1, n):
        raise DomainError(f"forms.{where}: need {n - 1} frame vectors in C^{n}")
    return frame


def frame_value(psi, vectors):
    """Evaluate a real (n-1,n-1)-form on a decomposable frame of n-1 vectors,
    normalized by the product of the squared vector norms."""
    n = psi.n
    if (psi.p, psi.q) != (n - 1, n - 1):
        raise DomainError("forms.frame_value: form must have bidegree (n-1, n-1)")
    return float(_frame_values(psi, _as_frame(vectors, n, "frame_value")[None])[0])


def plucker_margin(psi):
    """Exact weak-positivity margin of a real (n-1,n-1)-form over orthonormal
    frames.

    Every (n-1)-vector in C^n is decomposable, and the maximal minors d of a
    frame satisfy sum_I |d_I|^2 = det(V V^*), which is 1 for an orthonormal
    frame.  Every unit vector of minors is therefore the minor vector of an
    orthonormal frame, and the least value over those frames is the least
    eigenvalue of the Hermitian Plucker matrix.  A frame of unit but
    non-orthonormal vectors has |d|^2 <= 1 (Hadamard), so its value is at
    least min(margin, 0).
    """
    n = psi.n
    if (psi.p, psi.q) != (n - 1, n - 1):
        raise DomainError("forms.plucker_margin: wrong bidegree")
    if not psi.is_real():
        raise DomainError("forms.plucker_margin: form must be real")
    return float(np.linalg.eigvalsh(_plucker_matrix(psi))[0])


def weak_positivity_margin(psi, samples=200, rng=None, extra_frames=()):
    """Sampled lower bound witness for weak positivity of an (n-1,n-1)-form.

    The least normalized frame evaluation over the caller-supplied frames and
    ``samples`` random frames.  A nonnegative margin is evidence of weak
    positivity at sampling confidence; a negative margin is a certificate
    against it.
    """
    n = psi.n
    if (psi.p, psi.q) != (n - 1, n - 1):
        raise DomainError("forms.weak_positivity_margin: wrong bidegree")
    if not psi.is_real():
        raise DomainError("forms.weak_positivity_margin: form must be real")
    _check_samples(samples, "weak_positivity_margin")
    rng = np.random.default_rng(rng)
    given = [_as_frame(f, n, "weak_positivity_margin") for f in extra_frames]
    # one draw, in the stream of a frame-by-frame loop: each frame's real
    # parts, then its imaginary parts
    parts = rng.standard_normal((samples, 2, n - 1, n))
    drawn = parts[:, 0] + 1j * parts[:, 1]
    drawn /= np.linalg.norm(drawn, axis=-1, keepdims=True)
    frames = np.concatenate([np.reshape(given, (-1, n - 1, n)), drawn])
    if not len(frames):
        raise DomainError("forms.weak_positivity_margin: no frames to sample")
    return float(_frame_values(psi, frames).min())


# ---------------------------------------------------------------------------
# Agreement suite for the positivity characterizations
# ---------------------------------------------------------------------------


# Slack of each verdict of ``equivalence_suite``.
_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts of the eigenvalue, hyperplane, sampled weak-positivity and
    exact Plucker tests."""

    lambda_hat_min: float
    hyperplane_min_analytic: float
    hyperplane_min_sampled: float
    weak_margin: float
    exact_margin: float
    eigenvalue_ok: bool
    hyperplane_ok: bool
    weak_ok: bool
    exact_ok: bool

    @property
    def agree(self):
        return self.eigenvalue_ok == self.hyperplane_ok == self.weak_ok == self.exact_ok


def equivalence_suite(h, n, samples=32, rng=None):
    """Cross-check the characterizations of hat-positivity for the quadratic
    with Hessian ``h``.

    (1) min of the hat transform of the eigenvalues; (2) minimal trace of the
    compression to a complex hyperplane, whose analytic value is the sum of
    the n-1 smallest eigenvalues; (3) the sampled weak-positivity margin of
    ``form wedge omega^(n-2)``, normalized by (n-2)! so that coordinate
    frames of eigenvectors reproduce the hat eigenvalues exactly; (4) the
    exact margin of the same form, the least eigenvalue of its Plucker
    matrix over (n-2)!.  Each test passes at a value of at least
    ``-_AGREEMENT_TOL``.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (n, n) or not np.allclose(h, h.conj().T):
        raise DomainError("forms.equivalence_suite: h must be n x n Hermitian")
    _check_samples(samples, "equivalence_suite")
    rng = np.random.default_rng(rng)
    lam, vecs = np.linalg.eigh(h)

    lam_hat_min = float((lam.sum() - lam).min())
    analytic = float(lam.sum() - lam.max())

    # one draw, in the stream of a vector-by-vector loop: each vector's real
    # parts, then its imaginary parts; the hyperplane orthogonal to w has
    # compressed trace tr h - w^H h w
    parts = rng.standard_normal((samples, 2, n))
    w = parts[:, 0] + 1j * parts[:, 1]
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    values = (np.trace(h) - np.einsum("si,ij,sj->s", w.conj(), h, w)).real
    sampled = values.min(initial=np.inf)

    psi = one_one_form(h).wedge(_euclidean_power(n, n - 2))
    # the frame pairing sums H[j,k] v_j conj(v_k), i.e. the quadratic form of
    # the transpose, so the extremal frames are the conjugated eigenvectors
    eigen_frames = [
        [vecs[:, j].conj() for j in range(n) if j != i] for i in range(n)
    ]
    scale = math.factorial(n - 2)
    margin = weak_positivity_margin(psi, samples=samples, rng=rng, extra_frames=eigen_frames) / scale
    exact = plucker_margin(psi) / scale

    return EquivalenceReport(
        lambda_hat_min=lam_hat_min,
        hyperplane_min_analytic=analytic,
        hyperplane_min_sampled=float(sampled),
        weak_margin=margin,
        exact_margin=exact,
        eigenvalue_ok=lam_hat_min >= -_AGREEMENT_TOL,
        hyperplane_ok=analytic >= -_AGREEMENT_TOL,
        weak_ok=margin >= -_AGREEMENT_TOL,
        exact_ok=exact >= -_AGREEMENT_TOL,
    )
