"""Damped Newton-Krylov solver for the determinant equation on the flat torus.

Solves ``det(alpha_u) = c * f`` for a scalar field u on [0, 2pi)^n and the
compatibility constant c, where

    alpha_u = Gamma + ((trace H_u) I - H_u) / (n - 1)

and H_u is the complex Hessian of the translation-invariant reduction (one
quarter of the real Hessian).  The equation determines u up to an additive
constant, so iterates are kept mean-zero, log(c) is eliminated each step as
the grid mean of ``log det alpha_u - log f``, and the returned solution is
shifted to ``sup u = 0``.

The Newton correction solves the exact linearization of the log-form residual
with GMRES, right-preconditioned by the inverse constant-coefficient symbol of
the mean linearization tensor, so GMRES minimizes the true linear residual.
Each correction is solved only as far as the outer iteration needs: its
relative tolerance is an Eisenstat-Walker forcing term that follows the sup
residual, at most 1e-4 and at least ``min(1e-4, sqrt(0.1 tol))``.  A
correction whose true relative residual exceeds 1e-3 ends the loop with the
failure ``"krylov"``.  A backtracking line search enforces both residual
decrease and a positivity floor on alpha; a loop whose line search finds no
admissible step, or whose first iterate is not above the floor, leaves the
cone: it ends with the failure ``"cone-exit"``.

Each GMRES matvec is one spectral pass: ``y -> rfftn(y)``, times the inverse
symbol and the stacked Hessian multipliers, one batched ``irfftn`` to the
upper-triangle Hessian blocks ``h_p`` of ``M^-1 y``, then ``sum_p w_p h_p``
with ``w_p = theta_ii`` on the diagonal and ``2 theta_ij`` off it.  GMRES is
the module's own: one cycle from zero of at most ``_KRYLOV_MAXITER``
iterations, classical Gram-Schmidt applied twice and Givens rotations.  It
keeps every product ``A v_k``, so its closing residual ``b - sum_k y_k (A
v_k)`` costs no matvec, and it reports success only when that residual is
within its tolerance, below 1e-3; only a correction it reports unconverged
costs one more application for the check.  SciPy is loaded on first use:
``scipy.fft`` at the first transform, so importing the solver loads none of
it, and no solve loads ``scipy.sparse`` or ``scipy.linalg``.

The pointwise linear algebra of a Newton step calls no LAPACK routine.  Every
pointwise decision is a Cholesky factorization written over grid fields
(``pointwise.field_cholesky``, shared with the cone audits): one vectorized
step per entry of the triangle, with a NaN or non-positive pivot meaning
"not above".  An iterate is factored once: the factor L of alpha gives
``log det alpha``, the linearization tensor ``((tr A) I - A) / (n - 1)``
with ``A = alpha^-1 = L^-T L^-1``, and the cone test ``alpha - floor I >
0``, which the bound ``det alpha / (tr alpha)^(n-1) <= lambda_min`` clears
wherever it can; ``alpha - floor I`` is factored only on the points the
bound leaves open.  The tensor's eigenvalues are ``hat(1 / eig alpha) / (n -
1)``, positive whenever alpha is, so ellipticity needs no separate check.
Matrix fields keep the public shape ``grid + (n, n)`` but are stored
component-major, as views of ``(n, n) + grid`` buffers, so every entry is a
contiguous grid field; a constant background is a zero-stride view of one
matrix.  The pointwise kernels allocate only single grid fields as
temporaries and write each matrix-field result into a buffer the caller is
done with: alpha into its Hessian's, the linearization tensor into that of
``alpha^-1``.

Each loop returns a record of its last iterate inside the cone
(``_LoopOutcome``), and the diagnostics of a SolveResult are those of the
alpha that iterate was tested with: ``min_alpha_eig`` is its least
eigenvalue and ``hess_sup`` that of the Hessian recovered from it, so no
Hessian is taken after the loop.  A loop keeps that alpha only when it
converges; one that ends otherwise rebuilds it, bit for bit, from the field
it tested, so alpha never sits beside the factor during GMRES.

A given ``u0`` starts one Newton loop on the problem's grid.  A ``u0`` whose
loop leaves the cone or does not converge is abandoned, and the grid is
solved as if it had not been given, so a grid with a coarser level may try
the prolonged start too before its cold solve.  Without ``u0``, a solve is
nested across grids (grid sequencing, Kelley 2003).  A grid whose largest
axis exceeds 16 and whose axes all halve to even sizes of at least 8 has a
coarser level: the same problem sampled at every other grid point.  The
coarsest level is solved from u = 0, and each finer level starts from the
coarser solution prolonged spectrally (its ``rfftn`` zero-padded, the coarse
Nyquist modes dropped).  Smooth data leave the fine levels little or nothing
to do.  Acceptance stays on the requested grid: ``converged`` means its sup
residual is at most ``tolerance``.  When a coarser level fails, or its
prolonged start is abandoned, the grid is solved cold from u = 0.
``SolveResult.iterations`` and ``residual_history`` cover every level that
led to the returned u, coarse first, and ``SolveResult.levels`` lists
``(grid shape, Newton steps)`` for every loop that ran, an abandoned start
included.

Failures travel as values: each loop returns its failure label, which the
driver inspects to abandon a start, and ``newton_solve`` returns every
outcome as a SolveResult.  Only bad input raises: ``residual`` and
``linearized_apply`` reject a u whose alpha is not positive definite.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grid import (
    _hessian_multipliers,
    _spectral_stack,
    _validate_shape,
    _wavenumbers,
    complex_hessian,
    grid_coordinates,
    spectral_gradient,
)
from .pointwise import _EPS, ROUNDING, eig_extreme, field_cholesky, lower_inverse

__all__ = [
    "SolverOptions",
    "TorusProblem",
    "SolveResult",
    "alpha_field",
    "residual",
    "linearized_apply",
    "newton_solve",
    "diagnostics",
    "manufactured_problem",
]

# Loosest relative GMRES tolerance of a Newton correction: ten times inside
# the 1e-3 true relative residual above which a correction is rejected.
_FORCING_CAP = 1e-4
# Krylov dimension of the one GMRES cycle of a correction.
_KRYLOV_MAXITER = 200
# Step halvings of the line search.
_MAX_BACKTRACKS = 40
# The floor of options that state none, times the least eigenvalue of Gamma.
_FLOOR_SCALE = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    """``positivity_floor`` floors the eigenvalues of alpha; None means 1e-6
    (``_FLOOR_SCALE``) times the least eigenvalue of Gamma."""

    tolerance: float = 1e-10
    max_iterations: int = 50
    positivity_floor: float | None = None

    def __post_init__(self):
        # each test states the valid range, so that NaN, which fails every
        # comparison, is rejected too, and a non-number is never compared
        for name in ("tolerance", "positivity_floor"):
            value = getattr(self, name)
            valid = isinstance(value, (int, float, np.integer, np.floating)) and 0 < value < math.inf
            if not (valid or name == "positivity_floor" and value is None):
                raise DomainError(f"SolverOptions: {name} must be finite and positive, not {value!r}")
        count = self.max_iterations
        if not (isinstance(count, (int, np.integer)) and count >= 1):
            raise DomainError(f"SolverOptions: max_iterations must be an integer >= 1, not {count!r}")


@dataclass(frozen=True)
class TorusProblem:
    """Discretized problem data: background field Gamma and density f."""

    gamma: np.ndarray  # shape grid + (n, n), symmetric positive definite
    f: np.ndarray      # shape grid, finite and strictly positive
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        f = _checked_density(self.f)
        shape = f.shape
        n = len(shape)
        gamma = np.asarray(self.gamma, dtype=float)
        # gamma becomes component-major: the matrix itself, or the field
        if gamma.shape == (n, n):
            gamma = gamma.copy()
            # a constant background is stored as a zero-stride view
            stored = np.broadcast_to(gamma.reshape((n, n) + (1,) * n), (n, n) + shape)
        elif gamma.shape == shape + (n, n):
            gamma = stored = np.ascontiguousarray(_component_major(gamma))
        else:
            raise DomainError(
                f"TorusProblem: gamma shape {gamma.shape}, expected {shape + (n, n)}"
            )
        if not np.all(np.isfinite(gamma)):
            raise DomainError("TorusProblem: gamma must be finite")
        # np.allclose(gamma, gamma.swapaxes(0, 1)) one entry pair at a time:
        # allclose is not symmetric in its arguments, so both orders are asked
        if not all(
            np.allclose(gamma[i, j], gamma[j, i]) and np.allclose(gamma[j, i], gamma[i, j])
            for i in range(n)
            for j in range(i + 1, n)
        ):
            raise DomainError("TorusProblem: gamma must be symmetric")
        lo = -eig_extreme(gamma, (1,))
        if not lo > 0:
            raise DomainError("TorusProblem: gamma must be positive definite on the grid")
        hi = eig_extreme(gamma, (-1,))
        object.__setattr__(self, "gamma", _grid_major(stored))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_min_gamma_eig", lo)
        object.__setattr__(self, "_max_gamma_eig", hi)

    @property
    def n(self):
        return self.f.ndim

    @property
    def shape(self):
        return self.f.shape

    @property
    def positivity_floor(self):
        floor = self.options.positivity_floor
        return _FLOOR_SCALE * self._min_gamma_eig if floor is None else floor

    @property
    def gamma_eig_range(self):
        return self._min_gamma_eig, self._max_gamma_eig

    @property
    def compact_gamma(self):
        """Gamma as one ``(n, n)`` matrix when it is constant, else its field."""
        n = self.n
        return self.gamma if any(self.gamma.strides[:n]) else self.gamma[(0,) * n]

    def with_density(self, f):
        f = _checked_density(f)
        if f.shape != self.shape:
            raise DomainError(f"TorusProblem: density shape {f.shape}, expected {self.shape}")
        return self._evolve(f=f)

    def _evolve(self, **changes):
        """A copy with ``changes`` applied; the validated gamma and its
        spectrum are shared, not recomputed."""
        new = copy.copy(self)
        for name, value in changes.items():
            object.__setattr__(new, name, value)
        return new


def _checked_density(f):
    f = np.asarray(f, dtype=float)
    _validate_shape(f.shape)
    if not (np.all(np.isfinite(f)) and np.all(f > 0)):
        raise DomainError("TorusProblem: density must be finite and strictly positive")
    return f


@dataclass(frozen=True)
class SolveResult:
    """Solution field (sup u = 0), constant and solve diagnostics.

    ``min_alpha_eig`` and ``hess_sup`` are the least eigenvalue of the
    alpha that u's iterate was tested with (and passed the cone test with,
    unless even the start lay outside) and the largest |eigenvalue| of the
    Hessian recovered from it; ``grad_sup`` and ``osc`` are those of u.
    ``failure`` is None exactly when the solve converged.  ``iterations``
    and ``residual_history`` cover every grid level that led to u, coarse
    first; ``levels`` is ``(grid shape, Newton steps)`` for every Newton
    loop that ran, in order: an abandoned ``u0`` start first, then the grid
    levels coarse to fine.
    """

    u: np.ndarray
    c: float
    residual_history: tuple
    iterations: int
    failure: str | None = None
    levels: tuple = ()
    min_alpha_eig: float = np.nan
    grad_sup: float = np.nan
    hess_sup: float = np.nan
    osc: float = np.nan

    @property
    def converged(self):
        return self.failure is None

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else np.inf


def _component_major(a):
    """The ``(n, n) + grid`` view of a ``grid + (n, n)`` matrix field."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def _grid_major(a):
    """The ``grid + (n, n)`` view of a ``(n, n) + grid`` matrix field."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def _trace_free_part(m, scale):
    """``((tr m) I - m) * scale`` for a component-major field m, written
    into m and returned; ``scale`` is a number."""
    n = m.shape[0]
    tr = sum(m[i, i] for i in range(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] *= -scale
        np.subtract(tr, m[i, i], out=m[i, i])
        m[i, i] *= scale
    return m


def _alpha_from_hessian(problem, h):
    """Gamma + ((trace h) I - h) / (n - 1) for a Hessian field h, built in
    h's buffer: h is consumed."""
    alpha = _trace_free_part(_component_major(h), 1.0 / (problem.n - 1))
    alpha += _component_major(problem.gamma)
    return _grid_major(alpha)


def alpha_field(problem, u):
    """The matrix field Gamma + ((trace H) I - H) / (n - 1) for the field u."""
    return _alpha_from_hessian(problem, complex_hessian(u))


def _log_det_above(alpha, floor):
    """``(L, log det alpha)`` if ``alpha - floor I`` is positive definite at
    every grid point, else None; L is the grid-field Cholesky factor of
    alpha (``pointwise.field_cholesky``), and NaN entries fail the test.

    Alpha is factored once.  A positive floor is cleared by the bound of
    ``_clears_floor`` wherever it can be, and decided by the factorization
    of ``alpha - floor I`` on the points the bound leaves open.
    """
    a = _component_major(alpha)
    factor, ok = field_cholesky(a)
    if not np.all(ok):
        return None
    if floor:
        open_points = ~_clears_floor(a, factor, floor)
        if open_points.any() and not np.all(field_cholesky(a[:, :, open_points], floor)[1]):
            return None
    return factor, 2.0 * sum(np.log(factor[j, j]) for j in range(a.shape[0]))


def _clears_floor(a, factor, floor):
    """Mask of the points where the Cholesky factor L of the positive
    definite component-major field a proves ``lambda_min(a) > floor``.

    ``lambda_max <= tr a`` for a positive definite a, so ``det a / (tr
    a)^(n-1) <= lambda_min``; the bound is ``L_00^2 prod_j (L_jj^2 / tr
    a)``, whose partial products stay below ``tr a``.  It clears a point
    when it exceeds the floor by ``ROUNDING n^3 eps tr a``: ``pointwise``'s
    rounding model for a Cholesky test, at a magnitude that ``tr a`` bounds
    from above.  The slack covers the backward error of L, at most ``(n +
    1) eps tr a`` (Demmel 1989), and the ``O(n^2 eps)`` relative rounding
    of the trace and the bound.  A NaN or infinite bound leaves its point
    open.  The temporaries are two single fields: the trace, which becomes
    the threshold, and the bound.
    """
    n = a.shape[0]
    tr = a[0, 0].copy()
    for i in range(1, n):
        tr += a[i, i]
    bound = np.square(factor[0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            bound /= tr
            bound *= factor[j, j]
            bound *= factor[j, j]
        tr *= ROUNDING * n**3 * _EPS
        tr += floor
        return bound > tr


def _alpha_state(problem, u):
    """``(L, log det alpha)`` for the field u, L the Cholesky factor of
    alpha; raises DomainError unless alpha is positive definite on the
    whole grid."""
    state = _log_det_above(alpha_field(problem, u), 0.0)
    if state is None:
        raise DomainError("solver: u lies outside the cone: alpha_u is not positive definite on the grid")
    return state


def residual(problem, u, log_c):
    """Log-form residual ``log det alpha_u - log_c - log f`` on the grid.

    Raises DomainError when alpha_u is not positive definite somewhere.
    """
    _, logdet = _alpha_state(problem, u)
    return logdet - log_c - np.log(problem.f)


def _linearization_tensor(factor):
    """Coefficient tensor ``((tr A) I - A) / (n - 1)``, ``A = alpha^-1``, of
    the linearized operator, from the grid-field Cholesky factor L of alpha:
    ``A = L^-T L^-1`` with ``L^-1`` from ``pointwise.lower_inverse``.
    Positive definite wherever alpha is; built in the buffer of A.
    """
    inv = lower_inverse(factor)
    n = math.isqrt(2 * len(inv))  # n (n + 1) / 2 entries
    ainv = np.empty((n, n) + factor[0, 0].shape)
    for i in range(n):
        for j in range(i, n):
            entry = np.multiply(inv[j, i], inv[j, j], out=ainv[i, j])
            for k in range(j + 1, n):
                entry += inv[k, i] * inv[k, j]
            ainv[j, i] = entry
    return _grid_major(_trace_free_part(ainv, 1.0 / (n - 1)))


def linearized_apply(problem, u, v):
    """Directional derivative of ``log det alpha_u`` in the direction v."""
    factor, _ = _alpha_state(problem, u)
    theta = _linearization_tensor(factor)
    hv = complex_hessian(v)
    return np.einsum("...ij,...ij->...", theta, hv)


def _inverse_symbol(shape, theta_mean):
    """Inverse of the constant-coefficient symbol of the mean linearization
    on the half spectrum, zero on the mean mode."""
    k, _ = _wavenumbers(shape)
    d = len(shape)
    symbol = np.zeros(np.broadcast_shapes(*(k[i].shape for i in range(d))))
    for i in range(d):
        for j in range(d):
            symbol = symbol - 0.25 * theta_mean[i, j] * k[i] * k[j]
    symbol[(0,) * d] = 1.0
    inverse = 1.0 / symbol
    inverse[(0,) * d] = 0.0
    return inverse


def _preconditioner(shape, inverse):
    """``M^-1``: the inverse constant-coefficient symbol ``inverse``
    (``_inverse_symbol``) of the mean linearization, applied spectrally."""
    from scipy.fft import irfftn, rfftn

    def apply(vflat):
        vh = rfftn(vflat.reshape(shape)) * inverse
        return irfftn(vh, s=shape, axes=range(len(shape))).ravel()

    return apply


def _operator_weights(theta):
    """Weights ``w_p`` of the upper-triangle Hessian blocks ``h_p``
    (``np.triu_indices`` order) with ``sum_p w_p h_p = sum_ij theta_ij h_ij``:
    ``theta_ii`` on the diagonal and ``2 theta_ij`` off it."""
    t = _component_major(theta)
    rows, cols = np.triu_indices(t.shape[0])
    weights = t[rows, cols]
    weights[rows != cols] *= 2.0
    return weights


def _preconditioned_operator(shape, weights, inverse):
    """The matvec ``y -> A M^-1 y`` of the right-preconditioned system in
    one spectral pass; ``inverse`` is the inverse symbol of M.

    ``M^-1 y`` is never formed on the grid: the spectrum of y is scaled by
    the stacked Hessian multipliers over the symbol, and one batched inverse
    transform gives the Hessian blocks of ``M^-1 y``.
    """
    scaled = _hessian_multipliers(shape) * inverse

    def matvec(yflat):
        blocks = _spectral_stack(yflat.reshape(shape), scaled)
        lv = np.einsum("p...,p...->...", weights, blocks)
        lv -= lv.mean()
        return lv.ravel()

    return matvec


def _forcing_term(res, opts):
    """Relative GMRES tolerance for a Newton correction at sup residual res.

    Eisenstat-Walker forcing: eta ~ res keeps the outer convergence quadratic,
    the ``0.1 tol / res`` floor stops the last correction from solving below
    what the outer tolerance needs, and the cap keeps eta at most
    ``_FORCING_CAP``.  Since res and ``0.1 tol / res`` are not both below
    ``sqrt(0.1 tol)``, eta is at least ``min(_FORCING_CAP, sqrt(0.1 tol))``.
    """
    return min(_FORCING_CAP, max(res, 0.1 * opts.tolerance / res))


# module names that tests and the benchmark's span tracer rebind: the
# operator holder (to count matvecs) and GMRES itself
@dataclass(frozen=True)
class LinearOperator:
    """A square operator: ``matvec`` maps a float64 vector to a new array,
    which GMRES keeps by reference."""

    shape: tuple
    matvec: object
    dtype: object = float


def _gmres_cycle(op, b, rtol):
    """One GMRES cycle from x = 0 on ``op x = b`` (Saad and Schultz 1986):
    ``(x, r)``, with r the closing residual ``b - sum_k y_k (A v_k)``.

    Each iteration orthogonalizes ``A v_k`` by classical Gram-Schmidt
    applied twice (Giraud, Langou and Rozloznik 2005) and updates the QR
    factor of the Hessenberg matrix by one Givens rotation.  The cycle stops
    when the Arnoldi estimate ``|g_(k+1)|`` of the residual is at most ``rtol
    |b|``, at an exact breakdown, or after ``min(_KRYLOV_MAXITER, n)``
    iterations.  x is ``sum_k y_k v_k``, and each product ``A v_k`` is kept
    by reference, so r costs no matvec: it is the true residual up to the
    rounding of the operator's linearity.  The basis is one array of
    ``min(_KRYLOV_MAXITER, n) + 1`` vectors.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), b.copy()
    basis = np.empty((min(_KRYLOV_MAXITER, b.size) + 1, b.size))
    np.multiply(b, 1.0 / beta, out=basis[0])
    products, columns, rotations, g = [], [], [], [beta]
    for k in range(len(basis) - 1):
        w = op.matvec(basis[k])
        products.append(w)
        v, new = basis[: k + 1], basis[k + 1]
        h = v @ w
        np.subtract(w, h @ v, out=new)
        again = v @ new
        new -= again @ v
        column = (h + again).tolist()
        sub = np.linalg.norm(new)
        if sub <= _EPS * np.linalg.norm(w):
            sub = 0.0  # an exact breakdown: A v_k lies in the basis, g_(k+1) = 0
        else:
            new *= 1.0 / sub
        for i, (c, s) in enumerate(rotations):
            column[i], column[i + 1] = c * column[i] + s * column[i + 1], c * column[i + 1] - s * column[i]
        diag = math.hypot(column[k], sub)
        c, s = (column[k] / diag, sub / diag) if diag else (1.0, 0.0)
        column[k] = diag
        rotations.append((c, s))
        columns.append(column)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= rtol * beta:
            break
    # back substitution in R y = g; a zero pivot leaves its coefficient 0
    y = g[: len(columns)]
    for j in reversed(range(len(columns))):
        y[j] = y[j] / columns[j][j] if columns[j][j] else 0.0
        for i in range(j):
            y[i] -= y[j] * columns[j][i]
    # x and its residual as the same sum over the basis and the products
    x, r = np.zeros_like(b), b.copy()
    for coefficient, vector, product in zip(y, basis, products):
        x += coefficient * vector
        r -= coefficient * product
    return x, r


def gmres(op, b, rtol):
    """``(x, info)`` of one GMRES cycle (``_gmres_cycle``) on ``op x = b``:
    info is 0 exactly when the closing residual is at most ``rtol |b|``,
    else 1."""
    x, r = _gmres_cycle(op, b, rtol)
    return x, int(not np.linalg.norm(r) <= rtol * np.linalg.norm(b))


def _krylov_correction(factor, rhs, rtol):
    """The Newton correction ``M^-1 y`` for the right-hand side rhs at the
    alpha whose grid-field Cholesky factor is ``factor``, with GMRES stopped
    at relative tolerance rtol; None when its true relative residual
    exceeds 1e-3.

    GMRES reports success (``info == 0``) exactly when its closing residual
    is at most ``rtol |rhs|``, below 1e-3; only a correction it reports
    unconverged, as at the rounding floor, takes one more product.
    """
    shape = factor[0, 0].shape
    theta = _linearization_tensor(factor)
    inverse = _inverse_symbol(shape, theta.mean(axis=tuple(range(len(shape)))))
    weights = _operator_weights(theta)
    del theta  # GMRES needs only the weights and the inverse symbol
    matvec = _preconditioned_operator(shape, weights, inverse)
    op = LinearOperator((rhs.size, rhs.size), matvec=matvec, dtype=float)
    # right preconditioning: GMRES minimizes the true residual of
    # (A M^-1) y = rhs, and the correction is M^-1 y
    y, info = gmres(op, rhs, rtol=rtol)
    if info != 0 and np.linalg.norm(op.matvec(y) - rhs) / np.linalg.norm(rhs) > 1e-3:
        return None
    return _preconditioner(shape, inverse)(y).reshape(shape)


@dataclass(frozen=True)
class _LoopOutcome:
    """What one Newton loop returns: its last iterate inside the cone u
    (mean-zero; the start when even that is outside), log c, the residual
    history, the Newton steps and the failure label, None (converged),
    ``"max-iterations"``, ``"krylov"`` or ``"cone-exit"``.

    ``tested`` is the field whose alpha the loop tested last at u: u before
    its mean was removed.  ``alpha`` is that alpha when the loop converged,
    else None: a loop that goes on stepping does not keep it beside its
    Cholesky factor, and ``alpha_field(problem, tested)`` rebuilds it bit
    for bit.
    """

    u: np.ndarray
    log_c: float
    history: list
    steps: int
    failure: str | None
    tested: np.ndarray
    alpha: np.ndarray | None


def _newton_loop(problem, u0):
    """One Newton loop from u0, as a ``_LoopOutcome``."""
    opts = problem.options
    floor = problem.positivity_floor
    logf = np.log(problem.f)

    def evaluate(v):
        """``(alpha, L, log_c, res_field, res)`` of the iterate v: alpha when
        the residual meets the tolerance (else None), its Cholesky factor,
        the eliminated constant and the residual, field and sup; None unless
        ``alpha - floor I > 0``."""
        alpha = alpha_field(problem, v)
        state = _log_det_above(alpha, floor)
        if state is None:
            return None
        factor, logdet = state
        log_c = float((logdet - logf).mean())
        # logdet - log_c - logf in logdet's buffer: alpha may still be alive
        res_field = logdet
        res_field -= log_c
        res_field -= logf
        res = abs(max(float(res_field.max()), -float(res_field.min())))  # sup |res_field|
        return (alpha if res <= opts.tolerance else None), factor, log_c, res_field, res

    u = np.array(u0, dtype=float)
    u -= u.mean()
    state = evaluate(u)
    if state is None:
        return _LoopOutcome(u, math.nan, [], 0, "cone-exit", u, None)
    alpha, factor, log_c, res_field, res = state
    tested, history = u, [res]

    for iteration in range(opts.max_iterations):
        if res <= opts.tolerance:
            return _LoopOutcome(u, log_c, history, iteration, None, tested, alpha)

        delta = _krylov_correction(factor, -res_field.ravel(), _forcing_term(res, opts))
        if delta is None:
            return _LoopOutcome(u, log_c, history, iteration, "krylov", tested, alpha)
        delta -= delta.mean()

        step = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = u + step * delta
            state = evaluate(trial)
            if state is not None and state[-1] < res:
                u = trial - trial.mean()
                alpha, factor, log_c, res_field, res = state
                tested = trial
                break
            step *= 0.5
        else:
            return _LoopOutcome(u, log_c, history, iteration, "cone-exit", tested, alpha)
        history.append(res)

    failure = None if res <= opts.tolerance else "max-iterations"
    return _LoopOutcome(u, log_c, history, opts.max_iterations, failure, tested, alpha)


def _package(problem, outcome, levels):
    """The SolveResult of a loop's outcome, with the diagnostics of the
    alpha its iterate was tested with."""
    u = outcome.u
    u_out = u - u.max()
    with np.errstate(over="ignore"):
        c = float(np.exp(outcome.log_c))
    failure = outcome.failure
    if failure is None and not 0.0 < c < math.inf:
        # a density so small or large that c leaves the float range
        failure = "constant-range"
    result = SolveResult(
        u=u_out,
        c=c,
        residual_history=tuple(outcome.history),
        iterations=outcome.steps,
        failure=failure,
        levels=tuple(levels),
    )
    alpha = outcome.alpha if outcome.alpha is not None else alpha_field(problem, outcome.tested)
    return diagnostics(problem, result, alpha)


def _coarser_shape(shape):
    """The grid of the next coarser level, or None.  A level has one when
    its largest axis exceeds 16 and every axis halves to an even size of at
    least 8."""
    if max(shape) <= 16 or any(s % 4 or s < 16 for s in shape):
        return None
    return tuple(s // 2 for s in shape)


def _restricted(problem):
    """The problem sampled at every other grid point.  The samples of a
    validated problem need no new check, and the positivity floor stays the
    fine problem's."""
    every_other = (slice(None, None, 2),) * problem.n
    # a zero-stride (constant) gamma stays zero-stride
    return problem._evolve(gamma=problem.gamma[every_other], f=problem.f[every_other])


def _prolonged(u, shape):
    """Spectral interpolation of the coarse field u to the grid ``shape``:
    its ``rfftn`` zero-padded with the coarse Nyquist modes dropped, scaled
    by the point-count ratio, and one ``irfftn``."""
    from scipy.fft import irfftn, rfftn

    coarse = u.shape
    kept_coarse, kept_fine = [], []
    for s, fine in zip(coarse[:-1], shape[:-1]):
        half = s // 2
        kept_coarse.append(np.r_[0:half, half + 1:s])
        kept_fine.append(np.r_[0:half, fine - half + 1:fine])
    kept_coarse.append(np.arange(coarse[-1] // 2))
    kept_fine.append(kept_coarse[-1])
    padded = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    padded[np.ix_(*kept_fine)] = rfftn(u)[np.ix_(*kept_coarse)]
    padded *= math.prod(shape) / math.prod(coarse)
    return irfftn(padded, s=shape, axes=range(len(shape)))


def _counted_loop(problem, start, levels):
    """The ``_LoopOutcome`` of ``_newton_loop`` from start; appends ``(grid
    shape, Newton steps)`` to levels."""
    outcome = _newton_loop(problem, start)
    levels.append((problem.shape, outcome.steps))
    return outcome


def _ladder_solve(problem, levels):
    """Solve on the grid of problem, starting from the prolonged solution of
    the next coarser level when the grid has one, else cold from u = 0.

    Appends ``(grid shape, Newton steps)`` to ``levels`` for every loop,
    coarse to fine, and returns a ``_LoopOutcome``; the history and steps of
    a solve from a prolonged start include those of the coarser levels it
    came from.  A coarser level that does not converge, or a prolonged start
    that does not, leads to the cold loop on this grid, whose outcome is
    returned whatever it is.
    """
    if _coarser_shape(problem.shape) is not None:
        # the coarse alpha is not needed on this grid: it is dropped at once
        coarse = dataclasses.replace(_ladder_solve(_restricted(problem), levels), alpha=None)
        if coarse.failure is None:
            fine = _counted_loop(problem, _prolonged(coarse.u, problem.shape), levels)
            if fine.failure is None:
                return dataclasses.replace(
                    fine, history=coarse.history + fine.history, steps=coarse.steps + fine.steps
                )
    return _counted_loop(problem, np.zeros(problem.shape), levels)


def newton_solve(problem, u0=None):
    """Solve the problem, from ``u0`` when one is given.

    A given ``u0`` starts one Newton loop on the problem's grid.  When that
    loop leaves the cone or does not converge, ``u0`` is abandoned and the
    problem is solved as if it had not been given.  Without ``u0`` the solve
    starts from the prolonged solution of a coarser grid when the problem's
    grid has one (see ``_ladder_solve``), else from u = 0.

    Returns a SolveResult with ``sup u = 0`` for every outcome.  A cone
    exit (failure ``"cone-exit"``), non-convergence within the iteration
    budget (``"max-iterations"``), an unusable Krylov correction
    (``"krylov"``) or a constant c outside the positive floats
    (``"constant-range"``) yields a failure result whose u is the last
    iterate inside the cone of the final loop (its start, with c NaN, when
    even that is outside); c, history and diagnostics are that iterate's.
    A ``u0`` off the problem's grid raises DomainError.
    """
    if u0 is not None and np.shape(u0) != problem.shape:
        raise DomainError(f"solver.newton_solve: start shape {np.shape(u0)}, expected the grid {problem.shape}")
    levels = []
    outcome = None if u0 is None else _counted_loop(problem, u0, levels)
    if outcome is None or outcome.failure is not None:
        outcome = _ladder_solve(problem, levels)
    return _package(problem, outcome, levels)


def _hessian_from_alpha(problem, alpha):
    """The Hessian h of ``alpha = Gamma + ((tr h) I - h) / (n - 1)``, as
    ``(tr A) I - (n - 1) A`` with ``A = alpha - Gamma``, for a
    component-major alpha, written into alpha's buffer and returned.

    h is recovered up to the rounding of alpha itself: the eigenvalue
    extremes of the result differ from those of the Hessian alpha was built
    from by at most ``ROUNDING n^2 eps`` times the largest entry of alpha
    and Gamma (each entry of A errs by about eps times that, and the trace
    and the factor n - 1 amplify it at most 2n-fold in an entry and
    2n^2-fold in an eigenvalue).
    """
    n = problem.n
    a = np.subtract(alpha, _component_major(problem.gamma), out=alpha)
    tr = sum(a[i, i] for i in range(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                a[i, j] *= -(n - 1)
        np.subtract(tr, (n - 1) * a[i, i], out=a[i, i])
    return a


def diagnostics(problem, result, alpha):
    """Fill the gradient, Hessian, oscillation and cone-margin diagnostics
    of ``result.u``.

    ``alpha`` is the alpha field of the iterate result.u comes from, as a
    Newton loop hands it over; the call takes no Hessian.  ``min_alpha_eig``
    and ``hess_sup`` are the ``eigvalsh`` extremes of alpha and of the
    Hessian recovered from it in its own buffer (``_hessian_from_alpha``),
    so alpha is consumed.  The gradient is dropped before alpha is read, so
    at most one matrix field is alive at a time."""
    u = result.u
    grad = spectral_gradient(u)
    grad_sup = float(np.sqrt(np.square(grad, out=grad).sum(axis=-1)).max()) / 2.0
    del grad
    a = _component_major(alpha)
    min_alpha_eig = -eig_extreme(a, (1,))
    return dataclasses.replace(
        result,
        min_alpha_eig=min_alpha_eig,
        grad_sup=grad_sup,
        hess_sup=eig_extreme(_hessian_from_alpha(problem, a), (1, -1)),
        osc=float(u.max() - u.min()),
    )


# ---------------------------------------------------------------------------
# Reference problems
# ---------------------------------------------------------------------------


def manufactured_problem(amplitude=0.4, shape=(32, 32, 32)):
    """Forward-map fixture: density generated from a known solution.

    Returns ``(problem, u_star)`` where ``u_star = a (cos x1 + cos x2 cos x3)``
    shifted to sup = 0, and the density is ``det alpha_{u_star}`` so that the
    exact solution is (u_star, c = 1).
    """
    if not (isinstance(amplitude, (int, float, np.integer, np.floating)) and math.isfinite(amplitude)):
        raise DomainError(f"solver.manufactured_problem: amplitude {amplitude!r} is not a finite number")
    shape = _validate_shape(shape)
    if len(shape) != 3:
        raise DomainError("solver.manufactured_problem: fixture is three-dimensional")
    x1, x2, x3 = grid_coordinates(shape)
    u_star = amplitude * (np.cos(x1) + np.cos(x2) * np.cos(x3))
    base = TorusProblem(gamma=np.eye(3), f=np.ones(shape))
    alpha = alpha_field(base, u_star)
    eigs = np.linalg.eigvalsh(alpha)
    if eigs[..., 0].min() < 0.2:
        raise DomainError(
            "solver.manufactured_problem: amplitude leaves the 0.2 eigenvalue margin"
        )
    problem = base.with_density(np.prod(eigs, axis=-1))
    return problem, u_star - u_star.max()
