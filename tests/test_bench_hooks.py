"""The benchmark's span tracer still finds every name it rebinds.

``bench/spans.py`` wraps solver internals (``_preconditioner``,
``LinearOperator``, ``gmres``, ``alpha_field``, every binding of
``complex_hessian`` ...) by name; a rename in the package would break the
traced benchmark runs without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from n1ma import solver
from n1ma.config import parse_config
from n1ma.harness import family_run
from n1ma.solver import manufactured_problem, newton_solve

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_manufactured_solve():
    problem, u_star = manufactured_problem(0.4, (16, 16, 16))
    originals = (solver._preconditioner, solver.LinearOperator, solver.gmres, np.linalg.norm)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        result = newton_solve(problem)
    finally:
        tracer.uninstall()
    assert result.converged
    assert np.abs(result.u - u_star).max() <= 1e-9
    metrics = tracer.metrics()
    assert metrics["solver.matvecs"] > 0
    assert metrics["solver.newton_steps"] == result.iterations
    assert (solver._preconditioner, solver.LinearOperator, solver.gmres, np.linalg.norm) == originals


def test_tracer_counts_a_family_run():
    spans = load_spans()
    bindings = [
        (spans._owner(path), attr) for targets in spans.SPANS.values() for path, attr in targets
    ]
    bindings += [(solver, "_preconditioner"), (solver, "LinearOperator")]
    bindings += [(np.linalg, attr) for attr in spans.LINALG]
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    spec = parse_config(str(ROOT / "configs" / "family.ini"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = family_run(spec)
    finally:
        tracer.uninstall()
    assert report.all_converged
    assert [owner.__dict__[attr] for owner, attr in bindings] == originals
    metrics = tracer.metrics()
    # one Newton loop per fiber: each warm start converges
    assert metrics["solver.newton_steps"] == sum(row.newton_steps for row in report.rows) == 11
    assert metrics["solver.homotopy_stages"] == 0
