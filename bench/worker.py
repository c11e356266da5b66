"""One benchmark process: build a workload's inputs, time it, check it.

``run.py`` starts this script in a fresh interpreter with the BLAS and
OpenMP pools pinned to one thread.  Set-up is timed from the moment the
parent started the process (``--t0``, a ``time.monotonic`` reading, which is
system-wide on Linux) until the inputs are built.  ``--setup-only`` stops
there.  Otherwise the workload's body (a list of ``n1ma`` command lines run
through ``n1ma.cli.main``) runs pass after pass until ``--seconds`` have
gone by.  The outputs of the last pass are checked against values computed
apart from the program, and every checker is fed a planted wrong answer that
it must reject.  The last line on standard output is one JSON object for the
parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# the imports are part of the timed set-up
sys.path.insert(0, SRC)
import numpy as np  # noqa: E402

import n1ma.cli  # noqa: E402

import checks  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, timed body and output checks of one workload."""

    def __init__(self, seed, outdir):
        self.seed = seed
        self.out = outdir

    def build(self):
        """Write the inputs; run before timing starts."""

    def body(self):
        """The ``n1ma`` command lines of one pass."""
        raise NotImplementedError

    def check(self):
        """Problems found in the last pass's outputs, then the self-test:
        each checker is fed a planted wrong answer and named if it accepts it.
        """
        raise NotImplementedError


def _planted(checker, *args):
    """Name the checker if it accepts a planted wrong answer."""
    return [] if checker(*args) else [f"self-test: {checker.__name__} accepted a planted error"]


def _bump(u, seed):
    """A copy of ``u`` moved by 1e-6 at one grid point chosen by the seed."""
    out = u.copy()
    out[tuple(int(i) for i in np.random.default_rng(seed).integers(u.shape))] += 1e-6
    return out


class SolveM64(Workload):
    """``n1ma solve`` on the 64^3 manufactured problem, density from a file."""

    size = 64
    amplitude = 0.4

    def u_star(self):
        x1, x2, x3 = self.x
        return self.amplitude * (np.cos(x1) + np.cos(x2) * np.cos(x3))

    def build(self):
        self.x = checks.coordinates(3, self.size)
        x1, x2, x3 = self.x
        a = self.amplitude
        # complex Hessian of u*: one quarter of the analytic real Hessian
        h = np.zeros((self.size,) * 3 + (3, 3))
        h[..., 0, 0] = -0.25 * a * np.cos(x1)
        h[..., 1, 1] = h[..., 2, 2] = -0.25 * a * np.cos(x2) * np.cos(x3)
        h[..., 1, 2] = h[..., 2, 1] = 0.25 * a * np.sin(x2) * np.sin(x3)
        tr = np.trace(h, axis1=-2, axis2=-1)
        self.f = np.linalg.det(np.eye(3) + (tr[..., None, None] * np.eye(3) - h) / 2)
        density = os.path.join(self.out, "density.n1ma")
        checks.write_field(density, self.f)
        self.config = os.path.join(self.out, "m64.ini")
        with open(self.config, "w") as fh:
            fh.write(f"[problem]\nn = 3\ngrid = {self.size}\n\n[density]\nfile = {density}\n")

    def body(self):
        return [["solve", "-c", self.config, "-o", os.path.join(self.out, "solve")]]

    def check(self):
        out = os.path.join(self.out, "solve")
        u = checks.read_field(os.path.join(out, "u.n1ma"))
        _, rows = checks.read_csv(os.path.join(out, "solve.csv"))
        c = float(rows[1][rows[0].index("c")])
        ref = self.u_star()
        ref -= ref.max()
        gamma = np.eye(3)

        def u_matches(u):
            return checks.field_matches("solve u", u, ref, 1e-8)

        def c_is_one(c):
            return checks.close_to("solve c", c, 1.0, 1e-8)

        def residual(u, c):
            return checks.residual_small("solve", gamma, self.f, u, c, 1e-8)

        bumped = _bump(u, self.seed)
        return (
            u_matches(u)
            + c_is_one(c)
            + residual(u, c)
            + _planted(u_matches, bumped)
            + _planted(c_is_one, c * (1 + 1e-6))
            + _planted(residual, bumped, c)
            + _planted(residual, u, c * (1 + 1e-6))
        )


# Family endpoints: config expression and the same formula in numpy.  The
# metric starts at the identity and the density at 1, so t = 0 is the flat
# fiber (u = 0, c = 1).
FAMILY_T = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
FAMILY_METRIC = {
    (1, 1): ("1.4 + 0.1*cos(x1)", lambda x: 1.4 + 0.1 * np.cos(x[0])),
    (2, 2): ("1 + 0.1*sin(x2)*cos(x3)", lambda x: 1 + 0.1 * np.sin(x[1]) * np.cos(x[2])),
    (3, 3): ("0.9", lambda x: 0.9 + 0 * x[0]),
    (4, 4): ("1.2 + 0.05*cos(x4)", lambda x: 1.2 + 0.05 * np.cos(x[3])),
    (1, 2): ("0.05*sin(x2)", lambda x: 0.05 * np.sin(x[1])),
    (3, 4): ("0.04*cos(x1 + x4)", lambda x: 0.04 * np.cos(x[0] + x[3])),
}
FAMILY_DENSITY = (
    "exp(0.6*cos(x2) + 0.3*sin(x3 + x4))",
    lambda x: np.exp(0.6 * np.cos(x[1]) + 0.3 * np.sin(x[2] + x[3])),
)


class FamilyN4(Workload):
    """``n1ma family``: six fibers of an n = 4 family on a 12^4 grid."""

    n = 4
    size = 12

    def build(self):
        entries = "\n".join(f"e{i}{j} = {expr}" for (i, j), (expr, _) in FAMILY_METRIC.items())
        self.config = os.path.join(self.out, "family.ini")
        with open(self.config, "w") as fh:
            fh.write(
                f"[problem]\nn = {self.n}\ngrid = {self.size}\n\n"
                f"[family]\nt_values = {', '.join(str(t) for t in FAMILY_T)}\n\n"
                f"[beta1]\n{entries}\n\n[density1]\nexpression = {FAMILY_DENSITY[0]}\n\n"
                "[bounds]\nc_beta_omega = 4\nbudget = 10\n"
            )

    def body(self):
        return [["family", "-c", self.config, "-o", os.path.join(self.out, "family")]]

    def fiber(self, t):
        """Metric and density of the fiber at t, from the endpoint formulas."""
        x = checks.coordinates(self.n, self.size)
        gamma1 = np.zeros((self.size,) * self.n + (self.n, self.n))
        for i in range(self.n):
            gamma1[..., i, i] = 1.0
        for (i, j), (_, fn) in FAMILY_METRIC.items():
            gamma1[..., i - 1, j - 1] = gamma1[..., j - 1, i - 1] = fn(x)
        gamma = (1 - t) * np.eye(self.n) + t * gamma1
        return gamma, FAMILY_DENSITY[1](x) ** t

    def c_bound(self, t):
        gamma, f = self.fiber(t)
        trace = np.trace(gamma, axis1=-2, axis2=-1).mean()
        return float((trace / (self.n * (f ** (1.0 / self.n)).mean())) ** self.n)

    def check(self):
        _, rows = checks.read_csv(os.path.join(self.out, "family", "family.csv"))
        head, table = rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]
        if head[:2] != ["t", "c"] or not table:
            return ["family: malformed family.csv"]
        # an untimed cold solve of the last fiber, built from the formulas
        gamma, f = self.fiber(FAMILY_T[-1])
        cold = n1ma.solver.newton_solve(n1ma.solver.TorusProblem(gamma=gamma, f=f))

        def fibers(table):
            got = [float(r["t"]) for r in table]
            problems = [] if got == list(FAMILY_T) else [f"family: fibers at t = {got}"]
            return problems + [
                f"family: fiber t={r['t']} did not converge" for r in table if r["converged"] != "True"
            ]

        def c_bounded(table):
            problems = []
            for r in table:
                bound = self.c_bound(float(r["t"]))
                if not float(r["c"]) <= bound * (1 + 1e-12):
                    problems.append(f"family: c = {r['c']} above the trace-form bound {bound!r}")
            return problems

        def gaps(table):
            return [
                f"family: min_gap {r['min_gap']} < -1e-9 at t={r['t']}"
                for r in table
                if not float(r["min_gap"]) >= -1e-9
            ]

        def flat_fiber(row):
            c_one = checks.close_to("family t=0 c", float(row["c"]), 1.0, 1e-12)
            return c_one + checks.close_to("family t=0 osc", float(row["osc"]), 0.0, 1e-12)

        def last_c(row):
            return checks.close_to("family last c vs cold solve", float(row["c"]), cold.c, 1e-8)

        def residual(u, c):
            return checks.residual_small("family cold solve", gamma, f, u, c, 1e-8)

        problems = fibers(table)
        if problems:  # failed fibers have no values to check
            return problems
        problems = c_bounded(table) + gaps(table)
        if not cold.converged:
            problems.append("family: cold solve of the last fiber did not converge")
        problems += flat_fiber(table[0]) + last_c(table[-1]) + residual(cold.u, cold.c)

        k = self.seed % (len(table) - 1) + 1  # a fiber other than t = 0
        flipped = [dict(r) for r in table]
        flipped[k]["converged"] = "False"
        over = [dict(r) for r in table]
        over[k]["c"] = repr(self.c_bound(float(over[k]["t"])) * (1 + 1e-6))
        deep = [dict(r) for r in table]
        deep[k]["min_gap"] = "-1e-06"
        flat = dict(table[0], c=repr(1 + 1e-6))
        shifted = dict(table[-1], c=repr(float(table[-1]["c"]) * (1 + 1e-6)))
        bumped = _bump(cold.u, self.seed)
        return (
            problems
            + _planted(fibers, flipped)
            + _planted(c_bounded, over)
            + _planted(gaps, deep)
            + _planted(flat_fiber, flat)
            + _planted(last_c, shifted)
            + _planted(residual, bumped, cold.c)
        )


class ChecksN4(Workload):
    """``n1ma forms-check --n 4`` and ``n1ma cones`` at seeds taken from --seed."""

    n = 4
    frames_checked = 4

    def body(self):
        seed = str(self.seed)
        return [
            ["forms-check", "--n", str(self.n), "--seed", seed, "-o", self.out],
            ["cones", "--seed", seed, "-o", self.out],
        ]

    def frame_values(self, h):
        """Program's values of ``h ^ omega^(n-2) / (n-2)!`` on eigenvector frames."""
        forms = n1ma.forms
        n = self.n
        psi = forms.one_one_form(h)
        for _ in range(n - 2):
            psi = psi.wedge(forms.euclidean_metric(n))
        _, vecs = np.linalg.eigh(h)
        frames = [[vecs[:, j].conj() for j in range(n) if j != i] for i in range(n)]
        return [forms.frame_value(psi, frame) / math.factorial(n - 2) for frame in frames]

    def check(self):
        reports = {
            name: checks.read_csv(os.path.join(self.out, f"{name}.csv")) for name in ("forms", "cones")
        }
        rng = np.random.default_rng([self.seed, 1])
        hs = []
        for _ in range(self.frames_checked):
            a = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
            hs.append(0.5 * (a + a.conj().T))
        values = [self.frame_values(h) for h in hs]

        problems = []
        for name, (comments, rows) in reports.items():
            problems += checks.seed_header(name, comments, self.seed) + checks.verdicts_pass(name, rows)
        for h, vals in zip(hs, values):
            problems += checks.hat_frames(h, vals)

        for name, (_, rows) in reports.items():
            flipped = [list(r) for r in rows]
            flipped[1 + self.seed % (len(rows) - 1)][-1] = "False"
            problems += _planted(checks.verdicts_pass, name, flipped)
            problems += _planted(checks.seed_header, name, [f"generator=PCG64 seed={self.seed + 1}"], self.seed)
        off = list(values[0])
        off[self.seed % self.n] += 1e-6
        return problems + _planted(checks.hat_frames, hs[0], off)


WORKLOADS = {"solve-m64": SolveM64, "family-n4": FamilyN4, "checks-n4": ChecksN4}


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def run_pass(commands, devnull):
    """Run one pass; return (seconds, commands attempted, commands failed)."""
    failed = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(devnull):
        for argv in commands:
            failed += n1ma.cli.main(argv) != 0
    return time.perf_counter() - start, len(commands), failed


def measure(workload, seconds, traced):
    """Run passes until ``seconds`` have gone by; every pass is timed.

    The first pass pays the first-call costs (lazy tables, FFT plans) that
    every ``n1ma`` command pays in its own process.  Traced runs alternate
    untraced and traced passes, so one run gives both the layer metrics and
    the tracing overhead.
    """
    commands = workload.body()
    attempted = failed = 0
    plain, traced_times, layers, selfs, tracer = [], [], [], [], None
    peak_rss_mb = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        while True:
            if traced and len(traced_times) < len(plain):
                tracer = Tracer()
                tracer.install()
                try:
                    wall, a, f = run_pass(commands, devnull)
                finally:
                    tracer.uninstall()
                traced_times.append(wall)
                layers.append(tracer.metrics())
                selfs.append(tracer.self_times())
            else:
                wall, a, f = run_pass(commands, devnull)
                plain.append(wall)
            attempted += a
            failed += f
            if peak_rss_mb is None:
                # what one command costs in its own process, as a user runs it
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start >= seconds and (not traced or traced_times):
                break
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": plain,
        "cpu_per_pass_s": (time.process_time() - cpu0) / (len(plain) + len(traced_times)),
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        values = {}
        counts_repeat = True
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                # the first pass pays the first-call costs; traced passes never do
                value = statistics.median(traced_times) - statistics.median(plain[1:] or plain)
            elif unit == "count":
                value = layers[0][name]
                counts_repeat &= all(m[name] == value for m in layers)
            else:
                value = statistics.median(m[name] for m in layers)
            values[name] = {"value": value, "unit": unit}
        result["layers"] = values
        result["counts_repeat"] = counts_repeat
        result["self_s"] = {k: statistics.median(d.get(k, 0.0) for d in selfs) for k in selfs[0]}
        result["spans"] = tracer.spans
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.dirname(os.path.abspath(n1ma.__file__))) != SRC:
        raise SystemExit(f"worker: n1ma imported from {n1ma.__file__}, not from {SRC}")
    outdir = os.path.join(OUT, args.workload)
    os.makedirs(outdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed % 2**31, outdir)
    workload.build()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = measure(workload, args.seconds, bool(args.trace))
    problems = workload.check()
    if args.trace and not result["counts_repeat"]:
        problems.append("trace: work counts differ between traced passes")
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(outdir, "trace.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    result.update(setup_s=setup_s, problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
