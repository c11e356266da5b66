"""Every ``__all__`` of the package lists exactly its module's public API,
and public functions meet bad input with DomainError.

A name left in ``__all__`` after its definition is deleted, or a public
``def``/``class`` left out of it, fails here.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from n1ma import eigencone, forms, pointwise, solver
from n1ma.errors import DomainError

SRC = Path(__file__).resolve().parents[1] / "src" / "n1ma"
# the Krylov names the benchmark's tracer rebinds by name, not API
NOT_API = {"solver": {"LinearOperator", "gmres"}}


def _modules_with_all():
    """``(module stem, parsed source)`` of every module that sets ``__all__``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
               for node in tree.body):
            out.append(pytest.param(path.stem, tree, id=path.stem))
    return out


@pytest.mark.parametrize("stem, tree", _modules_with_all())
def test_all_lists_the_public_api(stem, tree):
    name = "n1ma" if stem == "__init__" else f"n1ma.{stem}"
    module = importlib.import_module(name)
    for export in module.__all__:
        obj = getattr(module, export)
        # the package re-exports its modules' names; a module lists its own
        if stem != "__init__":
            assert obj.__module__ == name, export
    public = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public - NOT_API.get(stem, set()) <= set(module.__all__)


def _nan_at_one_point():
    """A diagonal component-major 3x3 field on 8 points, NaN at one."""
    m = np.zeros((3, 3, 8))
    for i in range(3):
        m[i, i] = i + 1.0
    m[0, 0, 3] = np.nan
    return m


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: pointwise.eig_extreme(np.zeros((2, 3, 4)), (1,)), id="eig_extreme-not-square"),
        pytest.param(lambda: pointwise.eig_extreme(np.full((3, 3, 4), np.nan), (1,)), id="eig_extreme-nan"),
        # eigvalsh returns a value for a batch with one NaN matrix
        pytest.param(lambda: pointwise.eig_extreme(_nan_at_one_point(), (-1,)), id="eig_extreme-one-nan"),
        pytest.param(lambda: solver.manufactured_problem(np.nan, (8, 8, 8)), id="manufactured_problem-nan"),
        pytest.param(lambda: eigencone.is_m_subharmonic(np.ones(3), np.nan), id="is_m_subharmonic-nan"),
        pytest.param(lambda: forms.euclidean_metric(-1), id="euclidean_metric-negative"),
        pytest.param(lambda: forms.euclidean_metric(2.5), id="euclidean_metric-fraction"),
        pytest.param(lambda: forms.PQForm.zero(3, -1, 0), id="PQForm.zero-negative"),
    ],
)
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
