"""Command-line interface: solve, verify, family, radial, cones, forms-check.

Outputs are CSV files (decimal point, comma separator, LF line endings) plus
a printed summary.  Randomized suites draw from a seeded PCG64 generator
recorded in the report header, so fixed seed and config give byte-identical
outputs.  Exit codes: 0 success, 2 cone-exit, 3 non-convergence,
4 invariant violation, 5 bad config or arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import eigencone, forms, radial
from .config import parse_config
from .errors import ConfigError, DomainError
from .grid import field_to_csv, write_field
from .harness import AMGM_FLOOR, FamilySpec, audit_solve, family_run
from .solver import TorusProblem, manufactured_problem, newton_solve

EXIT_OK = 0
EXIT_CONE = 2
EXIT_MAXITER = 3
EXIT_INVARIANT = 4
EXIT_CONFIG = 5


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, rows, comments=()):
    with open(path, "w", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _load_problem(path):
    if path == "manufactured":
        problem, _ = manufactured_problem()
        return problem
    spec = parse_config(path)
    if not isinstance(spec, TorusProblem):
        raise ConfigError(f"cli: {path} defines a family, expected a single problem")
    return spec


def _print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def _checks_report(path, rows, seed):
    """Write ``(check, value, threshold, pass)`` rows under their header to
    the CSV at path with the generator seed, print them, and return the exit
    code of the pass column."""
    rows = [["check", "value", "threshold", "pass"], *rows]
    _write_csv(path, rows, comments=[f"generator=PCG64 seed={seed}"])
    _print_table([[_cell(v) for v in row] for row in rows])
    return EXIT_OK if all(bool(row[3]) for row in rows[1:]) else EXIT_INVARIANT


def _failure_code(failures):
    """Exit code of unconverged solves with these failure labels: 2 if one
    left the cone, else 3."""
    return EXIT_CONE if "cone-exit" in failures else EXIT_MAXITER


def _failed(command, result):
    """Report an unconverged solve on stderr and return its exit code."""
    print(f"{command}: solver did not converge ({result.failure})", file=sys.stderr)
    return _failure_code((result.failure,))


def _random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (h + h.conj().T)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args):
    problem = _load_problem(args.config)
    out = _ensure_outdir(args.output)
    result = newton_solve(problem)
    header = [
        "c", "osc", "grad_sup", "hess_sup", "min_alpha_eig",
        "iterations", "final_residual", "converged",
    ]
    row = [
        result.c, result.osc, result.grad_sup, result.hess_sup,
        result.min_alpha_eig, result.iterations, result.final_residual,
        result.converged,
    ]
    _write_csv(os.path.join(out, "solve.csv"), [header, row])
    _write_csv(
        os.path.join(out, "residuals.csv"),
        [["iteration", "sup_residual"]]
        + [[i, r] for i, r in enumerate(result.residual_history)],
    )
    write_field(os.path.join(out, "u.n1ma"), result.u)
    field_to_csv(os.path.join(out, "u.csv"), result.u)
    _print_table([header, [_cell(v) for v in row]])
    for shape, steps in result.levels:
        print(f"level {'x'.join(map(str, shape))}: {steps} Newton steps")
    return EXIT_OK if result.converged else _failed("solve", result)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cone_rows(rng, samples):
    """Cone inclusion and gap audits on ``samples`` random spectra per check."""
    rows = []
    for n in (3, 4, 5):
        lam = eigencone.sample_spectra(rng, samples, n)
        psh = eigencone.is_psh(lam)
        sh2 = eigencone.is_m_subharmonic(lam, 2, 1e-12)
        n1 = eigencone.is_n1_psh(lam, 1e-12)
        sh1 = eigencone.is_m_subharmonic(lam, 1, 1e-12)
        bad = int((psh & ~sh2).sum() + (sh2 & ~n1).sum() + (n1 & ~sh1).sum())
        rows.append([f"cone_inclusions_n{n}", bad, 0, bad == 0])

    pts = eigencone.sample_cone_points(rng, samples, 3)
    gap = eigencone.amgm_trace_gap_min(pts["beta"], pts["omega"], pts["hess"])
    rows.append(["amgm_trace_gap_min", gap, -1e-12, gap >= -1e-12])

    lam = rng.uniform(-1.0, 4.0, size=(samples, 3))
    pgap = eigencone.psh_product_gap(lam)
    rows.append(["psh_product_gap_min", float(pgap.min()), -1e-12, bool(pgap.min() >= -1e-12)])
    return rows


def _form_rows(rng, trials):
    """Hat identity and equivalence audits on ``trials`` random Hermitian 3x3."""
    worst = 0.0
    agree = True
    for _ in range(trials):
        h = _random_hermitian(rng, 3)
        worst = max(worst, forms.hat_identity_residual(h, 3))
        agree = agree and forms.equivalence_suite(h, 3, rng=rng).agree
    return [
        ["hat_identity_max_residual", worst, 1e-12, worst <= 1e-12],
        ["equivalence_agreement", agree, True, agree],
    ]


def cmd_verify(args):
    problem = _load_problem(args.config)
    out = _ensure_outdir(args.output)
    result = newton_solve(problem)
    if not result.converged:
        return _failed("verify", result)

    audit = audit_solve(problem, result)
    rows = [["converged", True, True, True]]
    rows.append(["c_upper_bound", audit.c_upper - audit.c, 0.0, audit.c_upper_ok])
    rows.append(["mass_identity", audit.mass_ok, True, audit.mass_ok])
    rows.append(["amgm_min_gap", audit.amgm_min_gap, AMGM_FLOOR, audit.amgm_min_gap >= AMGM_FLOOR])

    # density scaling: doubling f must leave u fixed and halve c; a density
    # whose double is past the float range is halved instead
    factor = 2.0 if problem.f.max() <= np.finfo(float).max / 2 else 0.5
    scaled = newton_solve(problem.with_density(factor * problem.f), u0=result.u)
    u_shift = float(np.abs(scaled.u - result.u).max())
    c_rel = abs(scaled.c * factor - result.c) / result.c
    rows.append(["density_scaling_u", u_shift, 1e-9, u_shift <= 1e-9])
    rows.append(["density_scaling_c", c_rel, 1e-9, c_rel <= 1e-9])

    rng = np.random.default_rng(args.seed)
    rows.extend(_cone_rows(rng, args.samples))
    rows.extend(_form_rows(rng, args.trials))
    return _checks_report(os.path.join(out, "verify.csv"), rows, args.seed)


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def cmd_family(args):
    spec = parse_config(args.config)
    if not isinstance(spec, FamilySpec):
        raise ConfigError(f"cli: {args.config} does not define a family")
    out = _ensure_outdir(args.output)
    report = family_run(spec)
    _write_csv(os.path.join(out, "family.csv"), report.csv_rows())
    print(f"fibers: {len(report.rows)}  uniformity sup_t (c + 1/c + osc): {report.uniformity!r}"
          f"  budget: {report.budget!r}")
    _print_table([[_cell(v) for v in row] for row in report.csv_rows()])
    for row in report.rows:
        print(f"fiber t={row.t!r}: {row.start} start, {row.newton_steps} Newton steps")
    failures = [row.failure for row in report.rows if not row.converged]
    if failures:
        return _failure_code(failures)
    audits_ok = all(row.audit.all_ok for row in report.rows)
    if not (report.within_budget and audits_ok):
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# radial
# ---------------------------------------------------------------------------


def cmd_radial(args):
    out = _ensure_outdir(args.output)
    profile = radial.standard_profiles()["logloglog"]
    rows = [["r", "lambda_hat_1", "lambda_hat_j", "ma_hat"]]
    for r in profile.radii(args.n, count=25):
        lam1, lamj = radial.radial_hat_eigenvalues(profile, r, args.n)
        rows.append([float(r), lam1, lamj, radial.radial_ma_hat(profile, r, args.n)])
    _write_csv(os.path.join(out, "radial.csv"), rows)

    spec = radial.ShellIntegrand(
        p=args.p, n=args.n,
        r_inner=math.exp(-math.e**2), r_outer=math.exp(-math.e),
    )
    report = radial.integral_threshold(spec, args.levels)
    threshold_rows = [["p", "level", "partial_integral", "verdict"]]
    for lvl in report.levels:
        threshold_rows.append([args.p, lvl.level, lvl.partial_integral, report.verdict])
    _write_csv(os.path.join(out, "threshold.csv"), threshold_rows)
    print(f"threshold: n={args.n} p={args.p} verdict={report.verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def cmd_cones(args):
    out = _ensure_outdir(args.output)
    rows = _cone_rows(np.random.default_rng(args.seed), args.samples)

    rng = np.random.default_rng(args.seed + 1)
    lam = eigencone.sample_spectra(rng, args.samples, 4)
    inv_c = rng.uniform(0.1, 2.0, size=(args.samples, 1))
    gamma = inv_c + rng.uniform(0.0, 3.0, size=(args.samples, 4))
    small = eigencone.is_quasi_n1_psh(lam, np.broadcast_to(inv_c, lam.shape))
    quasi = eigencone.is_quasi_n1_psh(lam, gamma, 1e-12)
    bad = int((small & ~quasi).sum())
    rows.append(["quasi_cone_inclusion", bad, 0, bad == 0])
    return _checks_report(os.path.join(out, "cones.csv"), rows, args.seed)


# ---------------------------------------------------------------------------
# forms-check
# ---------------------------------------------------------------------------


def cmd_forms_check(args):
    out = _ensure_outdir(args.output)
    rng = np.random.default_rng(args.seed)
    worst_hat = 0.0
    worst_star = 0.0
    disagreements = 0
    for _ in range(args.trials):
        h = _random_hermitian(rng, args.n)
        worst_hat = max(worst_hat, forms.hat_identity_residual(h, args.n))
        if not forms.equivalence_suite(h, args.n, rng=rng).agree:
            disagreements += 1
        for (p, q) in ((1, 1), (2, 1)):
            shape = (
                len(forms._combos(args.n, p)),
                len(forms._combos(args.n, q)),
            )
            a = forms.PQForm(
                args.n, p, q,
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            )
            twice = forms.hodge_star(forms.hodge_star(a, np.eye(args.n)), np.eye(args.n))
            err = (twice - a * float((-1) ** (p + q))).max_norm()
            worst_star = max(worst_star, err / max(1.0, a.max_norm()))
    rows = [
        ["hat_identity_max_residual", worst_hat, 1e-12, worst_hat <= 1e-12],
        ["double_star_sign_max_err", worst_star, 1e-12, worst_star <= 1e-12],
        ["equivalence_disagreements", disagreements, 0, disagreements == 0],
    ]
    return _checks_report(os.path.join(out, "forms.csv"), rows, args.seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the bad-config code,
    not argparse's 2, which is the cone-exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# least accepted value of the count, seed, dimension and exponent flags of
# any subcommand; the radial module checks --levels itself
_FLAG_LEAST = {"samples": 1, "trials": 1, "seed": 0, "n": 3, "p": 0}


def _check_flags(args):
    for flag, least in _FLAG_LEAST.items():
        value = getattr(args, flag, least)
        # stated as the valid range, so that NaN fails it
        if not least <= value < math.inf:
            raise ConfigError(f"cli: --{flag} must be at least {least} and finite, got {value}")


def build_parser():
    parser = _Parser(prog="n1ma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="solve and audit the estimate structure")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("family", help="solve a deformation family")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("radial", help="radial eigenvalue sweep and threshold table")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_radial)

    p = sub.add_parser("cones", help="randomized cone inclusion and gap audits")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_cones)

    p = sub.add_parser("forms-check", help="randomized form algebra audits")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=".")
    p.set_defaults(fn=cmd_forms_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
