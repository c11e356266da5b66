import numpy as np
import pytest

from n1ma.config import parse_config
from n1ma.errors import ConfigError
from n1ma.grid import grid_coordinates, write_field
from n1ma.harness import FamilySpec
from n1ma.solver import TorusProblem


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestProblemConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write(tmp_path, "[problem]\n[solver]\n")
        problem = parse_config(path)
        assert isinstance(problem, TorusProblem)
        assert problem.shape == (32, 32, 32)
        assert problem.n == 3
        assert problem.options.tolerance == 1e-10
        assert np.allclose(problem.gamma, np.eye(3))
        assert np.all(problem.f == 1.0)

    def test_per_axis_grid(self, tmp_path):
        path = write(tmp_path, "[problem]\nn = 3\ngrid = 16, 8, 12\n")
        problem = parse_config(path)
        assert problem.shape == (16, 8, 12)

    def test_grid_count_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, "[problem]\nn = 3\ngrid = 16, 8\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_expression_density(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[density]
expression = 1 + 0.5*cos(x1)
""")
        problem = parse_config(path)
        x1, _, _ = grid_coordinates((16, 16, 16))
        assert np.allclose(problem.f, 1 + 0.5 * np.cos(x1))

    def test_scalar_metric_expression(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[beta]
expression = 1.5 + 0.2*cos(x2)
""")
        problem = parse_config(path)
        x1, x2, _ = grid_coordinates((16, 16, 16))
        assert np.allclose(problem.gamma[..., 0, 0], 1.5 + 0.2 * np.cos(x2))
        assert np.abs(problem.gamma[..., 0, 1]).max() == 0.0

    def test_entry_metric(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[beta]
e11 = 2
e12 = 0.1*sin(x1)
""")
        problem = parse_config(path)
        assert np.allclose(problem.gamma[..., 0, 0], 2.0)
        assert np.allclose(problem.gamma[..., 1, 1], 1.0)
        assert np.allclose(problem.gamma[..., 0, 1], problem.gamma[..., 1, 0])

    def test_density_file(self, tmp_path):
        data = 1.0 + 0.25 * np.random.default_rng(0).random((16, 16, 16))
        fpath = tmp_path / "f.n1ma"
        write_field(fpath, data)
        path = write(tmp_path, f"""
[problem]
grid = 16
[density]
file = {fpath}
""")
        problem = parse_config(path)
        assert np.array_equal(problem.f, data)

    def test_nonpositive_density_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[density]
expression = cos(x1)
""")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_indefinite_metric_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[beta]
e11 = -1
""")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_undersized_comparison_constant_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[beta]
e11 = 3
[bounds]
c_beta_omega = 2
""")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("section,key,expr", [
        ("density", "expression", "exp(log(cos(x1)))"),
        ("beta", "expression", "exp(log(cos(x1)))"),
        ("beta", "e12", "log(cos(x1))"),
    ])
    def test_nonfinite_fields_rejected(self, tmp_path, section, key, expr):
        path = write(tmp_path, f"[problem]\ngrid = 16\n[{section}]\n{key} = {expr}\n")
        with np.errstate(invalid="ignore"), pytest.raises(ConfigError, match=rf"\[{section}\]"):
            parse_config(path)

    def test_nonfinite_family_endpoint_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[family]
t_values = 0, 0.5
[beta1]
e11 = exp(log(cos(x1)))
""")
        with np.errstate(invalid="ignore"), pytest.raises(ConfigError, match=r"\[beta1\]"):
            parse_config(path)

    def test_epsilon_override(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[solver]
epsilon = 1e-4
""")
        problem = parse_config(path)
        assert problem.positivity_floor == pytest.approx(1e-4, rel=1e-12)

    def test_bad_epsilon_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[solver]
epsilon = 2.0
""")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.ini")

    def test_bad_expression_names_section(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[density]
expression = 1 + frob(x1)
""")
        with pytest.raises(ConfigError, match=r"\[density\]"):
            parse_config(path)


class TestFamilyConfig:
    FAMILY = """
[problem]
grid = 16
[family]
t_values = 0, 0.25, 0.5
[beta]
e11 = 1
[beta1]
e11 = 1.4
e22 = 0.9
[density]
expression = 1
[density1]
expression = exp(0.2*cos(x1))
[bounds]
c_beta_omega = 3
"""

    def test_family_parse(self, tmp_path):
        path = write(tmp_path, self.FAMILY)
        spec = parse_config(path)
        assert isinstance(spec, FamilySpec)
        assert spec.t_grid == (0.0, 0.25, 0.5)
        fiber = spec.fiber(0.5)
        assert fiber.gamma[..., 0, 0].max() == pytest.approx(1.2)

    def test_family_parameter_validation(self, tmp_path):
        path = write(tmp_path, self.FAMILY.replace("0, 0.25, 0.5", "0, 0.8"))
        with pytest.raises(ConfigError):
            parse_config(path)
