"""The benchmark's span tracer still finds every name it rebinds.

``bench/spans.py`` wraps solver internals (``_preconditioner``,
``LinearOperator``, ``gmres``, ``alpha_field``, every binding of
``complex_hessian`` ...) by name; a rename in the package would break the
traced benchmark runs without failing any other test.
"""

import importlib.util
import json
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


def traced_bindings(spans):
    """Every ``(owner, attribute)`` the tracer rebinds."""
    bindings = [
        (spans._owner(path), attr) for targets in spans.SPANS.values() for path, attr in targets
    ]
    bindings += [(solver, "_preconditioner"), (solver, "LinearOperator")]
    return bindings + [(np.linalg, attr) for attr in spans.LINALG]


def traced_manufactured_solve():
    """The Krylov and Newton counts of a traced 16^3 manufactured solve, and
    whether ``uninstall`` restored every binding."""
    spans = load_spans()
    problem, u_star = manufactured_problem(0.4, (16, 16, 16))
    bindings = traced_bindings(spans)
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = newton_solve(problem)
    finally:
        tracer.uninstall()
    assert result.converged
    assert np.abs(result.u - u_star).max() <= 1e-9
    metrics = tracer.metrics()
    assert metrics["solver.newton_steps"] == result.iterations
    counts = {key: metrics[key] for key in ("solver.matvecs", "solver.precond_applies", "solver.newton_steps")}
    restored = [owner.__dict__[attr] for owner, attr in bindings] == originals
    return counts, restored


def test_tracer_counts_a_manufactured_solve():
    counts, restored = traced_manufactured_solve()
    assert counts["solver.matvecs"] > 0
    assert counts["solver.precond_applies"] > 0
    assert restored


# the same traced solve in a fresh interpreter, with the tracer installed
# before anything has loaded scipy
FRESH_SOLVE = """
import json, sys
sys.path.insert(0, {tests!r})
import test_bench_hooks
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(json.dumps(test_bench_hooks.traced_manufactured_solve()))
"""


def test_tracer_counts_the_same_solve_before_scipy_is_loaded():
    # imported here: conftest loads scipy, and the fresh interpreter imports
    # this module
    from conftest import fresh_python

    proc = fresh_python(FRESH_SOLVE.format(tests=str(ROOT / "tests")))
    assert proc.returncode == 0, proc.stderr
    counts, restored = json.loads(proc.stdout.splitlines()[-1])
    assert restored
    assert counts == traced_manufactured_solve()[0]


def test_tracer_counts_a_family_run():
    spans = load_spans()
    bindings = traced_bindings(spans)
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    spec = parse_config(str(ROOT / "configs" / "family.ini"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = family_run(spec)
    finally:
        tracer.uninstall()
    assert all(row.converged for row in report.rows)
    assert [owner.__dict__[attr] for owner, attr in bindings] == originals
    metrics = tracer.metrics()
    # one Newton loop per fiber: each warm start converges
    assert metrics["solver.newton_steps"] == sum(row.newton_steps for row in report.rows) == 11
    assert metrics["solver.homotopy_stages"] == 0
