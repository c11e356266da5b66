"""A-posteriori audits of solver output against the estimate structure.

Every converged solve is checked against computable forms of the a-priori
bounds: the trace-form upper bound on the normalizing constant, the mass
identity that makes it exact on the periodic grid, the pointwise AM-GM gap,
and the second-order ratio.  ``audit_solve`` runs them all from one Hessian
of the solution and returns them as an ``AuditRow``.  Families of problems
along affine metric paths and log-affine density paths are solved fiberwise
and summarized in a report with a uniformity statistic; each fiber's solve
starts from the secant extrapolation of the two fibers solved before it, and
``newton_solve`` falls back to the cold solve when that start fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grid import complex_hessian
from .solver import TorusProblem, newton_solve

__all__ = [
    "c2_ratio",
    "AuditRow",
    "DeclaredBounds",
    "FamilySpec",
    "FiberRow",
    "EstimateReport",
    "family_run",
    "audit_solve",
]

_MASS_TOLERANCE = 1e-10
# least accepted pointwise AM-GM gap of a converged solve
AMGM_FLOOR = -1e-9


def _c_upper_bound(problem, result, trace_gamma):
    """Trace-form upper bound on the constant and whether it holds, from the
    field ``trace_gamma = trace(Gamma)``.

    The bound is ``(mean(trace Gamma) / (n * mean(f^(1/n))))**n``: integrating
    the pointwise AM-GM inequality ``trace(alpha) >= n (c f)^(1/n)`` and using
    that the Hessian trace integrates to zero on the torus.  Equality holds
    exactly on the flat problem.
    """
    n = problem.n
    mass = (problem.f ** (1.0 / n)).mean()
    bound = float((trace_gamma.mean() / (n * mass)) ** n)
    satisfied = result.c <= bound + 1e-9 * max(1.0, bound)
    return bound, bool(satisfied)


def _mass_identity(trace_gamma, trace_alpha, tolerance):
    """Grid quadrature of trace(Gamma + h) equals that of trace(Gamma), from
    the fields ``trace_gamma`` and ``trace_alpha = trace(Gamma + h)`` for
    the Hessian h of the solution.

    The Hessian term integrates to zero for any periodic field, so this is a
    linear identity independent of u being a solution.
    """
    lhs = float(trace_alpha.mean())
    rhs = float(trace_gamma.mean())
    return abs(lhs - rhs) <= tolerance * max(1.0, abs(rhs))


def _amgm_min_gap(problem, result, trace_alpha):
    """Minimum over the grid of ``trace(Gamma + h) - n (c f)^(1/n)``, from
    the field ``trace_alpha = trace(Gamma + h)`` for the Hessian h of the
    solution.

    Nonnegative up to solver tolerance on converged output, with equality
    only where alpha has equal eigenvalues.
    """
    n = problem.n
    return float((trace_alpha - n * (result.c * problem.f) ** (1.0 / n)).min())


def c2_ratio(result):
    """Second-order diagnostic ``hess_sup / (grad_sup**2 + 1)``."""
    if not np.isfinite(result.grad_sup) or not np.isfinite(result.hess_sup):
        raise DomainError("harness.c2_ratio: result lacks diagnostics")
    return float(result.hess_sup / (result.grad_sup**2 + 1.0))


@dataclass(frozen=True)
class AuditRow:
    """All scalar audits of one converged solve."""

    c: float
    c_upper: float
    c_upper_ok: bool
    mass_ok: bool
    amgm_min_gap: float
    c2_ratio: float
    grad_sup: float
    osc: float

    @property
    def all_ok(self):
        return self.c_upper_ok and self.mass_ok and self.amgm_min_gap >= AMGM_FLOOR


def audit_solve(problem, result):
    """Run the full scalar audit battery on a converged solve."""
    trace_gamma = np.trace(problem.gamma, axis1=-2, axis2=-1)
    bound, ok = _c_upper_bound(problem, result, trace_gamma)
    h = complex_hessian(result.u)
    trace_alpha = trace_gamma + np.trace(h, axis1=-2, axis2=-1)
    return AuditRow(
        c=result.c,
        c_upper=bound,
        c_upper_ok=ok,
        mass_ok=_mass_identity(trace_gamma, trace_alpha, _MASS_TOLERANCE),
        amgm_min_gap=_amgm_min_gap(problem, result, trace_alpha),
        c2_ratio=c2_ratio(result),
        grad_sup=result.grad_sup,
        osc=result.osc,
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeclaredBounds:
    """Declared comparison constant and uniformity budget of a family."""

    c_beta_omega: float = 10.0
    uniformity_budget: float = 100.0

    def __post_init__(self):
        # each test states the valid range, so that NaN fails it
        if not 1 <= self.c_beta_omega < np.inf:
            raise DomainError("DeclaredBounds: c_beta_omega must be finite and >= 1")
        if not self.uniformity_budget > 0:
            raise DomainError("DeclaredBounds: budget must be positive")

    def check_metric(self, problem):
        """Raise DomainError unless ``c_beta_omega`` majorizes the metric
        eigenvalue range of ``problem`` against the identity."""
        lo, hi = problem.gamma_eig_range
        c = self.c_beta_omega
        if lo < 1.0 / c - 1e-12 or hi > c + 1e-12:
            raise DomainError(
                f"DeclaredBounds: c_beta_omega = {c} does not majorize "
                f"the metric eigenvalue range [{lo:.4g}, {hi:.4g}]"
            )


@dataclass(frozen=True)
class FamilySpec:
    """Affine metric path and log-affine density path over a parameter grid.

    ``start`` and ``end`` are the validated problems at t = 0 and t = 1; the
    fiber at t has metric ``(1-t) Gamma_0 + t Gamma_1``, density
    ``f_0**(1-t) * f_1**t`` and the solver options of ``start``.  Endpoint
    positivity makes every fiber positive.  The declared comparison constant
    must majorize the metric eigenvalue range at both endpoints, which bounds
    every fiber: along an affine path the least eigenvalue is concave in t
    and the largest convex.
    """

    start: TorusProblem
    end: TorusProblem
    t_grid: tuple
    bounds: DeclaredBounds = field(default_factory=DeclaredBounds)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_grid)
        if not (ts and all(0 <= t <= 0.5 for t in ts)):
            raise DomainError("FamilySpec: parameters must lie in [0, 1/2]")
        if self.start.shape != self.end.shape:
            raise DomainError(
                f"FamilySpec: endpoint grids {self.start.shape} and {self.end.shape} differ"
            )
        object.__setattr__(self, "t_grid", ts)
        for endpoint in (self.start, self.end):
            self.bounds.check_metric(endpoint)

    def fiber(self, t):
        if t == 0:
            return self.start
        gamma = (1 - t) * self.start.compact_gamma + t * self.end.compact_gamma
        f = self.start.f ** (1 - t) * self.end.f ** t
        return TorusProblem(gamma=gamma, f=f, options=self.start.options)


@dataclass(frozen=True)
class FiberRow:
    """Outcome of one fiber.  ``start`` names the first iterate:
    ``"cold"``, ``"previous"`` (the last solved fiber's u), ``"secant"`` (the
    extrapolation of the last two) or ``"cold after failed warm start"``;
    ``newton_steps`` counts the Newton steps of every loop of the fiber's
    solve (``levels`` of its SolveResult), an abandoned warm start
    included."""

    t: float
    failure: str | None
    audit: AuditRow | None
    start: str
    newton_steps: int

    @property
    def converged(self):
        return self.failure is None


@dataclass(frozen=True)
class EstimateReport:
    rows: tuple
    uniformity: float
    budget: float

    @property
    def within_budget(self):
        return np.isfinite(self.uniformity) and self.uniformity <= self.budget

    def csv_rows(self):
        header = [
            "t", "c", "c_upper", "mass", "min_gap", "c2_ratio",
            "grad_sup", "osc", "converged",
        ]
        out = [header]
        for row in self.rows:
            if row.audit is None:
                out.append([repr(row.t)] + [""] * 7 + [str(row.converged)])
            else:
                a = row.audit
                out.append([
                    repr(row.t), repr(a.c), repr(a.c_upper), str(a.mass_ok),
                    repr(a.amgm_min_gap), repr(a.c2_ratio), repr(a.grad_sup),
                    repr(a.osc), str(row.converged),
                ])
        return out


def _predictor(t, solved):
    """Start label and first iterate of the fiber at t from ``solved``, the
    ``(t, u)`` of the last two converged fibers, oldest first: none gives a
    cold start, one its u, two the secant ``u_k + (t - t_k)/(t_k - t_{k-1})
    (u_k - u_{k-1})``; repeated parameters fall back to ``u_k``."""
    if not solved:
        return "cold", None
    t_k, u_k = solved[-1]
    if len(solved) == 1 or solved[0][0] == t_k:
        return "previous", u_k
    t_j, u_j = solved[0]
    return "secant", u_k + (t - t_k) / (t_k - t_j) * (u_k - u_j)


def family_run(spec):
    """Solve every fiber by continuation and assemble the estimate report.

    Each fiber is one ``newton_solve`` from ``_predictor``'s iterate, which
    falls back to the cold solve when that start leaves the cone or does not
    converge.  Failed fibers are left out of the predictor and recorded in
    their row without aborting the run.  The uniformity statistic is
    ``sup_t (c_t + 1/c_t + osc_t)``; infinite when a fiber failed.
    """
    rows = []
    stat = 0.0
    solved = []
    for t in spec.t_grid:
        problem = spec.fiber(t)
        start, guess = _predictor(t, solved)
        result = newton_solve(problem, u0=guess)
        steps = sum(k for _, k in result.levels)
        # a guess that converges is the solve's only loop
        if guess is not None and len(result.levels) > 1:
            start = "cold after failed warm start"
        if not result.converged:
            rows.append(FiberRow(t, result.failure, None, start, steps))
            stat = np.inf
            continue
        audit = audit_solve(problem, result)
        rows.append(FiberRow(t, None, audit, start, steps))
        stat = max(stat, audit.c + 1.0 / audit.c + audit.osc)
        solved = [*solved[-1:], (t, result.u)]
    return EstimateReport(tuple(rows), float(stat), spec.bounds.uniformity_budget)
