"""Span tracing of n1ma from outside the package.

The tracer rebinds module and class attributes of n1ma (and the
``numpy.linalg`` functions the solver calls) to thin wrappers, so the traced
program is the unmodified source.  Every name another module imported is
rebound too: ``n1ma.solver.complex_hessian`` is a separate binding from
``n1ma.grid.complex_hessian``.  Spans are kept in memory as
``[name, start, end, parent]`` and turned into per-layer metrics after the
pass; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

MB = float(1 << 20)

# span name -> bindings [(module or module:class, attribute), ...]
SPANS = {
    "config.parse_config": [("n1ma.config", "parse_config"), ("n1ma.cli", "parse_config")],
    "grid.complex_hessian": [
        ("n1ma.grid", "complex_hessian"),
        ("n1ma.solver", "complex_hessian"),
        ("n1ma.harness", "complex_hessian"),
    ],
    "grid.spectral_gradient": [("n1ma.grid", "spectral_gradient"), ("n1ma.solver", "spectral_gradient")],
    "grid.read_field": [("n1ma.grid", "read_field"), ("n1ma.config", "read_field")],
    "grid.write_field": [("n1ma.grid", "write_field"), ("n1ma.cli", "write_field")],
    "grid.field_to_csv": [("n1ma.grid", "field_to_csv"), ("n1ma.cli", "field_to_csv")],
    "solver.newton_solve": [
        ("n1ma.solver", "newton_solve"),
        ("n1ma.cli", "newton_solve"),
        ("n1ma.harness", "newton_solve"),
    ],
    "solver.newton_loop": [("n1ma.solver", "_newton_loop")],
    "solver.alpha_field": [("n1ma.solver", "alpha_field")],
    "solver.diagnostics": [("n1ma.solver", "diagnostics")],
    "solver.gmres": [("n1ma.solver", "gmres")],
    "harness.family_run": [("n1ma.harness", "family_run"), ("n1ma.cli", "family_run")],
    "harness.audit_solve": [("n1ma.harness", "audit_solve"), ("n1ma.cli", "audit_solve")],
    "forms.wedge": [("n1ma.forms:PQForm", "wedge")],
    "forms.hodge_star": [("n1ma.forms", "hodge_star")],
    "forms.frame_value": [("n1ma.forms", "frame_value")],
    "forms.equivalence_suite": [("n1ma.forms", "equivalence_suite")],
    "forms.hat_identity_residual": [("n1ma.forms", "hat_identity_residual")],
    "eigencone.predicates": [
        ("n1ma.eigencone", "is_psh"),
        ("n1ma.eigencone", "is_m_subharmonic"),
        ("n1ma.eigencone", "is_n1_psh"),
        ("n1ma.eigencone", "is_quasi_n1_psh"),
    ],
    "eigencone.amgm_trace_gap_batch": [("n1ma.eigencone", "amgm_trace_gap_batch")],
    "eigencone.sampling": [
        ("n1ma.eigencone", "sample_spectra"),
        ("n1ma.eigencone", "sample_cone_points"),
    ],
}

# numpy.linalg functions recorded while a solve runs (``solver.linalg``)
LINALG = ("eigvalsh", "eigh", "inv", "det", "slogdet", "solve", "cholesky", "norm")

SOLVER_SPANS = ("solver.newton_solve", "solver.newton_loop", "solver.alpha_field", "solver.diagnostics")
IO_SPANS = ("grid.read_field", "grid.write_field", "grid.field_to_csv")

# every per-layer metric, in the order of BENCHMARK.json
PER_LAYER = (
    ("config.parse_config.s", "s"),
    ("grid.complex_hessian.calls", "count"),
    ("grid.complex_hessian.s", "s"),
    ("grid.complex_hessian.out_mb", "MB"),
    ("grid.spectral_gradient.s", "s"),
    ("grid.io.s", "s"),
    ("grid.io.mb", "MB"),
    ("solver.newton_solve.s", "s"),
    ("solver.self_s", "s"),
    ("solver.linalg.calls", "count"),
    ("solver.linalg.s", "s"),
    ("solver.gmres.s", "s"),
    ("solver.matvecs", "count"),
    ("solver.precond_applies", "count"),
    ("solver.newton_steps", "count"),
    ("solver.backtracks", "count"),
    ("solver.homotopy_stages", "count"),
    ("solver.diagnostics.s", "s"),
    ("harness.family_run.s", "s"),
    ("harness.audit_solve.s", "s"),
    ("forms.wedge.calls", "count"),
    ("forms.wedge.s", "s"),
    ("forms.hodge_star.s", "s"),
    ("forms.frame_value.calls", "count"),
    ("forms.frame_value.s", "s"),
    ("forms.equivalence_suite.s", "s"),
    ("forms.hat_identity_residual.s", "s"),
    ("eigencone.predicates.s", "s"),
    ("eigencone.amgm_trace_gap_batch.s", "s"),
    ("eigencone.sampling.s", "s"),
    ("trace.overhead_s", "s"),
)


def _owner(path):
    """The module, or the class after ``:``, that holds a traced name."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.io_bytes = 0
        self.hessian_bytes = 0
        self._saved = []
        self._solve_depth = 0

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span_wrapper(self, name, fn):
        tracer = self
        is_solve = name == "solver.newton_solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            idx = tracer._open(name)
            if is_solve:
                tracer._solve_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_solve:
                    tracer._solve_depth -= 1
                tracer._close(idx)
            tracer._after(name, args, result)
            return result

        return wrapper

    def _after(self, name, args, result):
        if name == "grid.complex_hessian":
            self.hessian_bytes += result.nbytes
        elif name in IO_SPANS:
            self.io_bytes += os.path.getsize(args[0])

    def _linalg_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._solve_depth:
                return fn(*args, **kwargs)
            tracer.counts["solver.linalg"] += 1
            idx = tracer._open("solver.linalg")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _counting(self, key, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Rebind every traced name; ``uninstall`` undoes it."""
        wrappers = {}
        for name, targets in SPANS.items():
            for path, attr in targets:
                owner = _owner(path)
                fn = owner.__dict__[attr]
                # one wrapper per original function, shared by all its bindings
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self._span_wrapper(name, fn)
                self._rebind(owner, attr, wrappers[key])
        for attr in LINALG:
            self._rebind(np.linalg, attr, self._linalg_wrapper(getattr(np.linalg, attr)))

        # Krylov work: the preconditioner closure and the operator matvec
        solver = _owner("n1ma.solver")
        precond_factory = solver._preconditioner
        linear_operator = solver.LinearOperator
        tracer = self

        def preconditioner(*args, **kwargs):
            apply = tracer._counting("solver.precond_applies", precond_factory(*args, **kwargs))
            apply.is_preconditioner = True
            return apply

        def counted_operator(*args, matvec, **kwargs):
            if not getattr(matvec, "is_preconditioner", False):
                matvec = tracer._counting("solver.matvecs", matvec)
            return linear_operator(*args, matvec=matvec, **kwargs)

        self._rebind(solver, "_preconditioner", preconditioner)
        self._rebind(solver, "LinearOperator", counted_operator)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------------

    def _durations(self):
        """Per span: duration, and duration minus its direct children."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def _outer_time(self, names, dur):
        """Total time of the spans in ``names`` not nested in one of them."""
        names = set(names)
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    def self_times(self):
        """Time per span name not covered by a child span."""
        _, self_time = self._durations()
        out = Counter()
        for (name, *_), s in zip(self.spans, self_time):
            out[name] += s
        return dict(out)

    def metrics(self):
        """Per-layer metrics of the recorded pass (``trace.overhead_s`` aside)."""
        dur, self_time = self._durations()
        c = self.counts

        def t(*names):
            return self._outer_time(names, dur)

        solver_self = sum(
            (s for (name, *_), s in zip(self.spans, self_time) if name in SOLVER_SPANS), 0.0
        )
        steps = c["solver.gmres"]
        loops = c["solver.newton_loop"]
        return {
            "config.parse_config.s": t("config.parse_config"),
            "grid.complex_hessian.calls": c["grid.complex_hessian"],
            "grid.complex_hessian.s": t("grid.complex_hessian"),
            "grid.complex_hessian.out_mb": self.hessian_bytes / MB,
            "grid.spectral_gradient.s": t("grid.spectral_gradient"),
            "grid.io.s": t(*IO_SPANS),
            "grid.io.mb": self.io_bytes / MB,
            "solver.newton_solve.s": t("solver.newton_solve"),
            "solver.self_s": solver_self,
            "solver.linalg.calls": c["solver.linalg"],
            "solver.linalg.s": t("solver.linalg"),
            "solver.gmres.s": t("solver.gmres"),
            "solver.matvecs": c["solver.matvecs"],
            "solver.precond_applies": c["solver.precond_applies"],
            "solver.newton_steps": steps,
            # alpha_field runs once per iterate tried: the initial iterate of
            # every stage, each accepted step, each rejected trial, and once
            # more in the diagnostics
            "solver.backtracks": c["solver.alpha_field"] - steps - loops - c["solver.diagnostics"],
            "solver.homotopy_stages": loops - c["solver.newton_solve"],
            "solver.diagnostics.s": t("solver.diagnostics"),
            "harness.family_run.s": t("harness.family_run"),
            "harness.audit_solve.s": t("harness.audit_solve"),
            "forms.wedge.calls": c["forms.wedge"],
            "forms.wedge.s": t("forms.wedge"),
            "forms.hodge_star.s": t("forms.hodge_star"),
            "forms.frame_value.calls": c["forms.frame_value"],
            "forms.frame_value.s": t("forms.frame_value"),
            "forms.equivalence_suite.s": t("forms.equivalence_suite"),
            "forms.hat_identity_residual.s": t("forms.hat_identity_residual"),
            "eigencone.predicates.s": t("eigencone.predicates"),
            "eigencone.amgm_trace_gap_batch.s": t("eigencone.amgm_trace_gap_batch"),
            "eigencone.sampling.s": t("eigencone.sampling"),
        }
