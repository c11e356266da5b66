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
from n1ma.solver import manufactured_problem, newton_solve

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
