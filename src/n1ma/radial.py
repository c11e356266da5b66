"""Closed-form radial calculus on C^n minus the origin.

Radial candidates are profiles chi composed with the fundamental radial
function g(z) = -|z|^(-2(n-2)).  For u = chi(g(|z|)) the hat transform of the
complex Hessian has exactly two distinct eigenvalues with closed forms in
chi' and chi'', so membership in the hat-positive cone reduces to chi being
non-decreasing and convex.  The formulas take the values of chi' and chi'' at
g(|z|); the one profile the ``radial`` sweep runs, chi = -log log log(-t),
gives them through ``logloglog_derivatives``.  The module also hosts the
integrability-threshold experiment for the log-density family, reduced to a
one-dimensional integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "g_profile",
    "radii",
    "radial_hat_eigenvalues",
    "radial_ma_hat",
    "logloglog_derivatives",
    "ShellIntegrand",
    "ThresholdLevel",
    "ThresholdReport",
    "integral_threshold",
]


def _radius(name, z_norm, n):
    """``z_norm`` as a float array; DomainError unless n >= 3 and every
    radius is finite and positive."""
    if n < 3:
        raise DomainError(f"radial.{name}: need n >= 3")
    r = np.asarray(z_norm, dtype=float)
    if not np.isfinite(r).all():
        raise DomainError(f"radial.{name}: need a finite |z|")
    if np.any(r <= 0):
        raise DomainError(f"radial.{name}: pole at the origin (need |z| > 0)")
    return r


def _past_range(name, r, n):
    return DomainError(f"radial.{name}: value at |z| = {r:.4g} is past the float range for n = {n}")


def g_profile(z_norm, n):
    """The radial potential ``-|z|^(-2(n-2))`` for n >= 3.

    Strictly negative and increasing in the radius; tends to -inf at the
    origin, which is rejected as a pole, as is a radius whose potential is
    past the float range.
    """
    r = _radius("g_profile", z_norm, n)
    with np.errstate(over="ignore"):
        out = -(r ** (-2 * (n - 2)))
    if not np.isfinite(out).all():
        raise _past_range("g_profile", r.min(), n)
    return float(out) if np.ndim(z_norm) == 0 else out


def radii(domain, n, count):
    """``count`` radii whose potential values g cover ``domain = (lo, hi)``,
    ``lo < hi < 0``, less 2% at each end.  DomainError for ``n < 3``, a
    ``count`` that is not a nonnegative integer, or a domain that is not
    finite with ``lo < hi < 0``."""
    lo, hi = domain
    if not n >= 3:
        raise DomainError(f"radial.radii: need n >= 3, got {n}")
    if not (isinstance(count, (int, np.integer)) and count >= 0):
        raise DomainError(f"radial.radii: need an integer count >= 0, got {count!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi < 0):
        raise DomainError(f"radial.radii: need a finite domain lo < hi < 0, got {domain!r}")
    ts = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), count)
    return (-ts) ** (-1.0 / (2 * (n - 2)))


def _finite(name, r, n, evaluate):
    """``evaluate()``, a closed form at radius r in dimension n; DomainError
    when it overflows or is not finite."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _past_range(name, r, n)
    return value


def radial_hat_eigenvalues(chi1, chi2, z_norm, n):
    """The two hat-transform eigenvalues of u = chi(g(|z|)) at radius |z|,
    given ``chi1 = chi'(g)`` and ``chi2 = chi''(g)`` there.

    Returns ``(lam_hat_1, lam_hat_j)`` where the first occurs once and the
    second with multiplicity n-1:

        lam_hat_1 = (n-1)(n-2) |z|^(-2(n-1))   * chi'(g)
        lam_hat_j = (n-2)^2    |z|^(-2(2n-3))  * chi''(g)
    """
    r = float(_radius("radial_hat_eigenvalues", z_norm, n))
    lam1 = _finite("radial_hat_eigenvalues", r, n,
                   lambda: (n - 1) * (n - 2) * r ** (-2 * (n - 1)) * chi1)
    lamj = _finite("radial_hat_eigenvalues", r, n,
                   lambda: (n - 2) ** 2 * r ** (-2 * (2 * n - 3)) * chi2)
    return lam1, lamj


def radial_ma_hat(chi1, chi2, z_norm, n):
    """Hat determinant of a radial candidate in closed form, given
    ``chi1 = chi'(g)`` and ``chi2 = chi''(g)`` at radius |z|.

    Equals ``(n-1)(n-2)^(2n-1) |z|^(-4(n-1)^2) chi'(g) chi''(g)^(n-1)``,
    which is the product lam_hat_1 * lam_hat_j^(n-1).
    """
    r = float(_radius("radial_ma_hat", z_norm, n))

    def evaluate():
        if (2 * n - 1) * math.log2(n - 2) > 1100:
            # the exact integer (n-2)^(2n-1) is past the float range, and at
            # a large n takes seconds to build only to overflow
            raise OverflowError
        return (n - 1) * (n - 2) ** (2 * n - 1) * r ** (-4 * (n - 1) ** 2) * chi1 * chi2 ** (n - 1)

    return _finite("radial_ma_hat", r, n, evaluate)


# The profile of the ``radial`` sweep, chi = -log log log(-t), on the
# potential values LOGLOGLOG_DOMAIN: non-decreasing and convex there.
LOGLOGLOG_DOMAIN = (-60.0, -4.0)


def logloglog_derivatives(t):
    """``(chi'(t), chi''(t))`` of chi = -log log log(-t) for t in
    LOGLOGLOG_DOMAIN; DomainError outside it."""
    lo, hi = LOGLOGLOG_DOMAIN
    if not lo <= t <= hi:
        raise DomainError(
            f"radial: potential value {t:.4g} outside profile domain [{lo:.4g}, {hi:.4g}]"
        )
    a = -t
    la, lla = math.log(a), math.log(math.log(a))
    return 1.0 / (a * la * lla), (la * lla + lla + 1.0) / (a * la * lla) ** 2


@dataclass(frozen=True)
class ShellIntegrand:
    """Parameters of the threshold integral over a shrinking shell.

    The density behaves like ``r^(-2n) s^(-n) (log s)^(-n)`` with
    ``s = log(1/r)``, and the weight ``(log f)^p ~ s^p``.  In the variable
    ``tau = log s`` the shell integral becomes

        integral of exp(-(n - p - 1) tau) / tau^n dtau,

    finite iff p <= n - 1.
    """

    p: float
    n: int
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 <= self.p < math.inf:
            raise DomainError(f"ShellIntegrand: p must be finite and nonnegative, got {self.p}")
        if self.n < 3:
            raise DomainError("ShellIntegrand: need n >= 3")
        if not 0 < self.r_inner < self.r_outer:
            raise DomainError("ShellIntegrand: need 0 < r_inner < r_outer")
        if -math.log(self.r_outer) <= 1.0:
            raise DomainError("ShellIntegrand: r_outer too large, need -log(r_outer) > 1")

    def tau_of_radius(self, r):
        return math.log(math.log(1.0 / r))

    def integrand(self, tau):
        a = self.n - self.p - 1.0
        try:
            return math.exp(-a * tau) / tau**self.n
        except OverflowError:
            if a < 0:
                raise
            return 0.0  # tau^n overflowed and exp(-a tau) <= 1: below the least normal float


@dataclass(frozen=True)
class ThresholdLevel:
    level: int
    partial_integral: float
    increment: float


@dataclass(frozen=True)
class ThresholdReport:
    levels: tuple
    verdict: str  # "convergent" | "divergent" | "inconclusive"


def integral_threshold(spec, refinement_levels=12):
    """Convergence experiment for the shell integral of ``f (log f)^p``.

    Levels push the inner cutoff toward the origin by doubling the
    double-log variable tau = log log(1/r); the critical exponent
    p = n - 1 leaves a tail decaying only like 1/tau^2, so doubling tau is
    what makes its increments collapse geometrically while every p > n - 1
    produces growing increments; at most 1000 levels keep the last cutoff
    ``tau1 2^levels`` finite, as ``tau1 = log log(1/r_inner) < 7``.  Windows
    use adaptive quadrature, and one whose integrand overflows is inf.

    Verdicts: "divergent" when a window overflowed, which the integrand can
    do only for p > n - 1; else "convergent" when the last increment falls
    below 1e-6; "divergent" when the last three increments each exceed 1e-3
    times the first; otherwise "inconclusive".
    """
    if not 3 <= refinement_levels <= 1000:
        raise DomainError(f"radial.integral_threshold: need 3 to 1000 levels, got {refinement_levels}")
    tau0 = spec.tau_of_radius(spec.r_outer)
    tau1 = spec.tau_of_radius(spec.r_inner)
    if tau1 <= tau0:
        raise DomainError("radial.integral_threshold: degenerate shell")
    decay = spec.n - spec.p - 1.0
    from scipy.integrate import quad  # imported here: the only use, and slow to load

    def window(lo, hi):
        if decay < 0 and -decay * lo > 600:
            return math.inf
        try:
            val, _ = quad(spec.integrand, lo, hi, limit=200)
        except OverflowError:
            return math.inf
        return val

    levels = []
    partial = window(tau0, tau1)
    levels.append(ThresholdLevel(0, partial, partial))
    hi = tau1
    for k in range(1, refinement_levels + 1):
        lo, hi = hi, tau1 * 2.0**k
        inc = window(lo, hi)
        partial = partial + inc
        levels.append(ThresholdLevel(k, partial, inc))

    incs = [lvl.increment for lvl in levels[1:]]
    first = incs[0]
    verdict = "inconclusive"
    if partial == math.inf:  # a window overflowed
        verdict = "divergent"
    elif incs[-1] < 1e-6:
        verdict = "convergent"
    elif all(i > 1e-3 * first for i in incs[-3:]):
        verdict = "divergent"
    return ThresholdReport(tuple(levels), verdict)
