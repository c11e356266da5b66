"""Closed-form radial calculus on C^n minus the origin.

Radial candidates are profiles chi composed with the fundamental radial
function g(z) = -|z|^(-2(n-2)).  For u = chi(g(|z|)) the hat transform of the
complex Hessian has exactly two distinct eigenvalues with closed forms in
chi' and chi'', so membership in the hat-positive cone reduces to chi being
non-decreasing and convex.  The module also hosts the integrability-threshold
experiment for the log-density family, reduced to a one-dimensional integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "g_profile",
    "RadialProfile",
    "radial_hat_eigenvalues",
    "radial_ma_hat",
    "ShellIntegrand",
    "ThresholdLevel",
    "ThresholdReport",
    "integral_threshold",
    "standard_profiles",
]


def g_profile(z_norm, n):
    """The radial potential ``-|z|^(-2(n-2))`` for n >= 3.

    Strictly negative and increasing in the radius; tends to -inf at the
    origin, which is rejected as a pole.
    """
    if n < 3:
        raise DomainError("radial.g_profile: need n >= 3")
    r = np.asarray(z_norm, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radial.g_profile: pole at the origin (need |z| > 0)")
    out = -(r ** (-2 * (n - 2)))
    return float(out) if np.ndim(z_norm) == 0 else out


@dataclass(frozen=True)
class RadialProfile:
    """A profile chi with explicit first and second derivatives.

    The three callables must be mutually consistent; construction checks
    chi1 and chi2 against centered finite differences of chi at the one step
    size ``h = 1e-4 (hi - lo)`` (order h^2) on 11 points of the domain.
    """

    chi: callable
    chi1: callable
    chi2: callable
    description: str = ""
    domain: tuple = (-5.0, -0.2)

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi < 0):
            raise DomainError("RadialProfile: domain must satisfy lo < hi < 0")
        ts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
        h = 1e-4 * (hi - lo)
        for t in ts:
            c0, cp, cm = self.chi(t), self.chi(t + h), self.chi(t - h)
            d1 = (cp - cm) / (2 * h)
            d2 = (cp - 2 * c0 + cm) / h**2
            scale1 = max(1.0, abs(self.chi1(t)))
            scale2 = max(1.0, abs(self.chi2(t)))
            if abs(d1 - self.chi1(t)) > 1e-4 * scale1:
                raise DomainError(
                    f"RadialProfile({self.description!r}): chi1 inconsistent with chi at t={t:.4g}"
                )
            if abs(d2 - self.chi2(t)) > 1e-3 * scale2:
                raise DomainError(
                    f"RadialProfile({self.description!r}): chi2 inconsistent with chi at t={t:.4g}"
                )

    def radii(self, n, count=10):
        """Radii whose potential values cover the domain less 2% at each end."""
        lo, hi = self.domain
        ts = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), count)
        return (-ts) ** (-1.0 / (2 * (n - 2)))


def _eval_at_potential(profile, z_norm, n):
    t = g_profile(z_norm, n)
    lo, hi = profile.domain
    if not lo <= t <= hi:
        raise DomainError(
            f"radial: potential value {t:.4g} outside profile domain [{lo:.4g}, {hi:.4g}]"
        )
    return t


def _finite(name, r, n, evaluate):
    """``evaluate()``, a closed form at radius r in dimension n; DomainError
    when it overflows or is not finite."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"radial.{name}: value at |z| = {r:.4g} is past the float range for n = {n}")
    return value


def radial_hat_eigenvalues(profile, z_norm, n):
    """The two hat-transform eigenvalues of u = chi(g(|z|)) at radius |z|.

    Returns ``(lam_hat_1, lam_hat_j)`` where the first occurs once and the
    second with multiplicity n-1:

        lam_hat_1 = (n-1)(n-2) |z|^(-2(n-1))   * chi'(g)
        lam_hat_j = (n-2)^2    |z|^(-2(2n-3))  * chi''(g)
    """
    t = _eval_at_potential(profile, z_norm, n)
    r = float(z_norm)
    lam1 = _finite("radial_hat_eigenvalues", r, n,
                   lambda: (n - 1) * (n - 2) * r ** (-2 * (n - 1)) * profile.chi1(t))
    lamj = _finite("radial_hat_eigenvalues", r, n,
                   lambda: (n - 2) ** 2 * r ** (-2 * (2 * n - 3)) * profile.chi2(t))
    return lam1, lamj


def radial_ma_hat(profile, z_norm, n):
    """Hat determinant of a radial candidate in closed form.

    Equals ``(n-1)(n-2)^(2n-1) |z|^(-4(n-1)^2) chi'(g) chi''(g)^(n-1)``,
    which is the product lam_hat_1 * lam_hat_j^(n-1).
    """
    t = _eval_at_potential(profile, z_norm, n)
    r = float(z_norm)

    def evaluate():
        if (2 * n - 1) * math.log2(n - 2) > 1100:
            # the exact integer (n-2)^(2n-1) is past the float range, and at
            # a large n takes seconds to build only to overflow
            raise OverflowError
        return (
            (n - 1)
            * (n - 2) ** (2 * n - 1)
            * r ** (-4 * (n - 1) ** 2)
            * profile.chi1(t)
            * profile.chi2(t) ** (n - 1)
        )

    return _finite("radial_ma_hat", r, n, evaluate)


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
    tau_hi: float
    partial_integral: float
    increment: float


@dataclass(frozen=True)
class ThresholdReport:
    p: float
    n: int
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
    levels.append(ThresholdLevel(0, tau1, partial, partial))
    hi = tau1
    for k in range(1, refinement_levels + 1):
        lo, hi = hi, tau1 * 2.0**k
        inc = window(lo, hi)
        partial = partial + inc
        levels.append(ThresholdLevel(k, hi, partial, inc))

    incs = [lvl.increment for lvl in levels[1:]]
    first = incs[0]
    verdict = "inconclusive"
    if partial == math.inf:  # a window overflowed
        verdict = "divergent"
    elif incs[-1] < 1e-6:
        verdict = "convergent"
    elif all(i > 1e-3 * first for i in incs[-3:]):
        verdict = "divergent"
    return ThresholdReport(spec.p, spec.n, tuple(levels), verdict)


# ---------------------------------------------------------------------------
# Named profiles
# ---------------------------------------------------------------------------


def _logloglog():
    def chi(t):
        return -math.log(math.log(math.log(-t)))

    def chi1(t):
        a = -t
        return 1.0 / (a * math.log(a) * math.log(math.log(a)))

    def chi2(t):
        a = -t
        la, lla = math.log(a), math.log(math.log(a))
        return (la * lla + lla + 1.0) / (a * la * lla) ** 2

    return RadialProfile(chi, chi1, chi2, "logloglog", domain=(-60.0, -4.0))


def standard_profiles():
    """A small library of named profiles used by the CLI and the tests."""
    return {
        "identity": RadialProfile(
            lambda t: t, lambda t: 1.0, lambda t: 0.0, "identity"
        ),
        "neglog": RadialProfile(
            lambda t: -math.log(-t),
            lambda t: -1.0 / t,
            lambda t: 1.0 / t**2,
            "neglog",
        ),
        "square": RadialProfile(
            lambda t: t * t, lambda t: 2 * t, lambda t: 2.0, "square"
        ),
        "logloglog": _logloglog(),
    }
