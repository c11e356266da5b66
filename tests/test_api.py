"""Every ``__all__`` of the package lists exactly its module's public API.

A name left in ``__all__`` after its definition is deleted, or a public
``def``/``class`` left out of it, fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "n1ma"
# the lazy-scipy shims the benchmark's tracer rebinds by name, not API
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
