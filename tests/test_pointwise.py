import ast
from pathlib import Path

import numpy as np
import pytest

import n1ma
from n1ma import pointwise
from n1ma.pointwise import PROBE, certified_max, field_cholesky, lower_inverse


def hermitian_field(rng, count, n, scale=1.0):
    """A ``(count, n, n)`` batch of well-conditioned Hermitian positive
    definite matrices."""
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return scale * (a @ np.conj(np.swapaxes(a, -1, -2)) / n + 0.5 * np.eye(n))


def lower(factor, n):
    """The ``(count, n, n)`` lower triangular matrices of a factor dict."""
    count = factor[0, 0].shape[0]
    out = np.zeros((count, n, n), dtype=np.result_type(*factor.values()))
    for (i, j), entry in factor.items():
        out[:, i, j] = entry
    return out


class TestFieldCholesky:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_complex_field_matches_lapack(self, n, scale):
        a = hermitian_field(np.random.default_rng(n), 300, n, scale)
        factor, ok = field_cholesky(np.moveaxis(a, 0, -1))
        assert ok.all()
        expected = np.linalg.cholesky(a)
        assert np.abs(lower(factor, n) - expected).max() <= 1e-12 * np.abs(expected).max()
        # the diagonal is real
        assert all(factor[k, k].dtype == float for k in range(n))

    def test_shift_and_real_field(self):
        a = hermitian_field(np.random.default_rng(7), 200, 4).real
        factor, ok = field_cholesky(np.moveaxis(a, 0, -1), 0.25)
        assert ok.all() and all(entry.dtype == float for entry in factor.values())
        expected = np.linalg.cholesky(a - 0.25 * np.eye(4))
        assert np.abs(lower(factor, 4) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_nan_and_indefinite_points_fail_the_pivot_test(self):
        a = hermitian_field(np.random.default_rng(3), 50, 3)
        a[4, 1, 1] = np.nan
        a[9, 2, 0] = a[9, 0, 2] = np.nan
        a[17] = -a[17]
        factor, ok = field_cholesky(np.moveaxis(a, 0, -1))
        assert np.flatnonzero(~ok).tolist() == [4, 9, 17]
        # a failed pivot is replaced by 1: the diagonal stays finite
        assert all(np.isfinite(factor[k, k]).all() for k in range(3))

    def test_lower_inverse(self):
        a = hermitian_field(np.random.default_rng(5), 100, 4)
        factor, _ = field_cholesky(np.moveaxis(a, 0, -1))
        product = lower(factor, 4) @ lower(lower_inverse(factor), 4)
        assert np.abs(product - np.eye(4)).max() <= 1e-12


class TestCertifiedMax:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.values = rng.standard_normal(5000)
        self.bound = self.values + rng.uniform(0.0, 0.1, 5000)
        self.points = []

    def exact(self, points):
        self.points.append(len(points))
        return self.values[points].max()

    def test_valid_bounds_take_few_exact_points(self):
        assert certified_max(self.bound, self.exact) == self.values.max()
        assert self.points[0] == PROBE and sum(self.points) < PROBE + 50

    def test_nan_bounds_keep_every_point(self):
        bound = self.bound.copy()
        bound[::3] = np.nan
        cleared = []

        def certify(points, provisional):
            cleared.append(points)
            return self.values[points] < provisional

        for check in (None, certify):
            assert certified_max(bound, self.exact, check) == self.values.max()
            assert certified_max(np.full(5000, np.nan), self.exact, check) == self.values.max()
        # certify sees indices into the full point set
        assert cleared and all(np.all(points < 5000) for points in cleared)

    @pytest.mark.parametrize("probe", [500, 501, 10**6])
    def test_probe_at_least_the_batch(self, monkeypatch, probe):
        # the provisional value is then the full maximum, whatever the bounds
        monkeypatch.setattr(pointwise, "PROBE", probe)
        self.values = self.values[:500]
        assert certified_max(np.zeros(500), self.exact) == self.values.max()
        assert self.points == [500]

    def test_certify_clears_candidates(self):
        loose = self.values + 10.0

        def certify(points, provisional):
            return self.values[points] < provisional

        assert certified_max(loose, self.exact) == self.values.max()
        # the probed points are not evaluated twice
        assert self.points == [PROBE, 5000 - PROBE]
        self.points.clear()
        assert certified_max(loose, self.exact, certify) == self.values.max()
        # the maximizer is in the probe, so nothing is left
        assert self.points == [PROBE]


# the cone audits may not pull in the solver, scipy or other heavy modules
ALLOWED_IMPORTS = {"numpy", "math", "dataclasses", "__future__", ".errors", ".pointwise"}


def imports(path):
    """The top-level module of every absolute import of a source file, and
    every relative import as ``.name``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module.split(".")[0])
            elif node.module:
                found.add("." * node.level + node.module)
            else:
                found.update("." * node.level + alias.name for alias in node.names)
    return found


# the solver adds scipy and the grid, never the harness, config or CLI
SOLVER_IMPORTS = ALLOWED_IMPORTS | {"scipy", "copy", ".grid"}


@pytest.mark.parametrize("name", ["pointwise.py", "eigencone.py", "solver.py"])
def test_layering(name):
    allowed = SOLVER_IMPORTS if name == "solver.py" else ALLOWED_IMPORTS
    found = imports(Path(n1ma.__file__).parent / name)
    assert found <= allowed, sorted(found - allowed)
    if name == "eigencone.py":
        assert ".pointwise" in found


def test_zero_field_of_both_signs_takes_one_eigvalsh(monkeypatch):
    """A 12^4, n = 4 field of zeros with -0.0 at random entries misses the
    uniform-field shortcut; every value is +-0, so the probe's one
    ``eigvalsh`` decides, with the sign the enclosure's probe gave."""
    m = np.where(np.random.default_rng(0).random((4, 4) + (12,) * 4) < 0.5, -0.0, 0.0)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    values = [pointwise.eig_extreme(m, signs) for signs in ((1, -1), (1,), (-1,))]
    assert calls == [PROBE] * 3
    # as the enclosure path wrote them, where eigvalsh over every point gives -0.0
    assert [repr(v) for v in values] == ["0.0", "0.0", "0.0"]
    e = eigvalsh(np.moveaxis(m.reshape(4, 4, -1), -1, 0))
    assert repr(float(np.max([-e[:, 0], e[:, -1]]))) == "-0.0"
