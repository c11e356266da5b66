import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n1ma import solver
from n1ma.cli import main
from n1ma.config import parse_config
from n1ma.errors import ConfigError
from n1ma.grid import grid_coordinates, write_field
from n1ma.harness import FamilySpec, family_run
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

    def test_constant_scalar_metric_is_one_matrix(self, tmp_path):
        path = write(tmp_path, "[problem]\ngrid = 16\n[beta]\nexpression = 1.2\n")
        problem = parse_config(path)
        assert problem.gamma.strides[:3] == (0, 0, 0)
        assert np.array_equal(problem.compact_gamma, 1.2 * np.eye(3))

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

    @pytest.mark.parametrize(
        "section, keys",
        [
            ("beta", "e11 = 2\nexpression = 5\n"),
            ("beta", "expression = 5\nfile = {tmp}/g\n"),
            ("density", "expression = 2\nfile = /nonexistent.n1ma\n"),
        ],
        ids=["entries-and-expression", "expression-and-file", "density-expression-and-file"],
    )
    def test_two_sources_rejected(self, tmp_path, section, keys):
        path = write(tmp_path, f"[problem]\ngrid = 8\n[{section}]\n" + keys.format(tmp=tmp_path))
        with pytest.raises(ConfigError, match=rf"\[{section}\]: .* each give the field"):
            parse_config(path)

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

    def test_metric_file_of_another_grid_rejected(self, tmp_path):
        for i in range(3):
            for j in range(i, 3):
                write_field(tmp_path / f"g_{i + 1}{j + 1}.n1ma", np.full((8, 8, 8), float(i == j)))
        path = write(tmp_path, f"""
[problem]
grid = 8,10,8
[beta]
file = {tmp_path}/g
""")
        with pytest.raises(ConfigError, match=r"\[beta\] file: shape \(8, 8, 8\) != grid \(8, 10, 8\)"):
            parse_config(path)

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
        ("density", "expression", "1/0"),
        ("density", "expression", "0^(0-1)"),
        ("density", "expression", "10^400"),
        ("density", "expression", "(0-1)^0.5"),
        ("beta", "e12", "1/0"),
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

    @pytest.mark.parametrize("section,key,value", [
        ("problem", "n", "three"),
        ("problem", "grid", "6"),
        ("solver", "tol", "abc"),
        ("solver", "tol", "1e-10%"),
        ("solver", "max_iter", "2.5"),
        ("solver", "epsilon", "q"),
        ("bounds", "c_beta_omega", "x"),
        ("bounds", "budget", "z"),
    ])
    def test_malformed_number_names_key(self, tmp_path, section, key, value):
        sections = {"problem": {"grid": "8"}}
        sections.setdefault(section, {})[key] = value
        path = write(tmp_path, "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        ))
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            parse_config(path)

    @pytest.mark.parametrize("line, error", [
        ("tol = abc", "[solver] tol: could not convert string to float: 'abc'"),
        ("max_iter = 1e3", "[solver] max_iter: invalid literal for int() with base 10: '1e3'"),
        ("tol = -1", "[solver]: SolverOptions: tolerance must be finite and positive, not -1.0"),
    ], ids=["tol", "max_iter", "options"])
    def test_solver_error_labelled_once(self, tmp_path, capsys, line, error):
        path = write(tmp_path, f"[problem]\ngrid = 8\n[solver]\n{line}\n")
        assert main(["solve", "-c", path, "-o", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err.splitlines() == [f"error: config.parse_config: {error}"]

    @pytest.mark.parametrize("text, error", [
        ("grid = 8\n[problem]\n", "File contains no section headers. [line 1]"),
        ("[problem]\ngrid = 8\nfoo\n", "Source contains parsing errors: '{path}' [line 3]"),
    ], ids=["no-section-header", "bare-line"])
    def test_malformed_ini_is_one_line(self, tmp_path, capsys, text, error):
        path = write(tmp_path, text)
        assert main(["solve", "-c", path, "-o", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err.splitlines() == [
            f"error: config.parse_config: {path}: {error.format(path=path)}"
        ]

    @pytest.mark.parametrize("line", [
        "c_beta_omega = nan", "c_beta_omega = inf", "budget = nan", "budget = 0", "budget = -1",
    ])
    def test_out_of_range_bounds_rejected(self, tmp_path, line):
        path = write(tmp_path, f"[problem]\ngrid = 8\n[bounds]\n{line}\n")
        with pytest.raises(ConfigError, match=r"\[bounds\]"):
            parse_config(path)

    def test_epsilon_override(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[solver]
epsilon = 1e-4
""")
        problem = parse_config(path)
        assert problem.positivity_floor == 1e-4

    def test_epsilon_is_the_floor_as_stated(self, tmp_path):
        path = write(tmp_path, "[problem]\ngrid = 8\n[solver]\nepsilon = 1e-7\n[beta]\nexpression = 0.7\n")
        assert parse_config(path).positivity_floor == 1e-7

    def test_bad_epsilon_rejected(self, tmp_path):
        path = write(tmp_path, """
[problem]
grid = 16
[solver]
epsilon = 2.0
""")
        with pytest.raises(ConfigError, match=r"\[solver\] epsilon"):
            parse_config(path)

    @pytest.mark.parametrize("epsilon", ["1.0", "0", "-1", "nan", "inf"])
    def test_out_of_range_epsilon_rejected(self, tmp_path, epsilon):
        path = write(tmp_path, f"""
[problem]
grid = 16
[solver]
epsilon = {epsilon}
""")
        with pytest.raises(ConfigError, match=r"\[solver\] epsilon"):
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

    # start Gamma = I; end least eigenvalue 0.5
    FLOOR_FAMILY = """
[problem]
grid = 8
[solver]
{solver}
[family]
t_values = 0, 0.25, 0.5
[beta1]
e11 = 1.5 + 0.1*cos(x1)
e22 = 1
e33 = 0.5
"""

    def test_epsilon_is_every_fiber_floor(self, tmp_path):
        spec = parse_config(write(tmp_path, self.FLOOR_FAMILY.format(solver="epsilon = 1e-4")))
        assert [spec.fiber(t).positivity_floor for t in spec.t_grid] == [1e-4] * 3

    def test_default_floor_follows_each_fiber(self, tmp_path):
        spec = parse_config(write(tmp_path, self.FLOOR_FAMILY.format(solver="")))
        for t in spec.t_grid:
            fiber = spec.fiber(t)
            assert fiber.positivity_floor == 1e-6 * fiber.gamma_eig_range[0]
        assert spec.fiber(0.5).positivity_floor == 1e-6 * 0.75

    @pytest.mark.parametrize("epsilon", ["0.5", "0.7"])
    def test_epsilon_must_lie_below_the_end_metric(self, tmp_path, capsys, epsilon):
        path = write(tmp_path, self.FLOOR_FAMILY.format(solver=f"epsilon = {epsilon}"))
        assert main(["family", "-c", path, "-o", str(tmp_path / "out")]) == 5
        assert "[solver] epsilon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_family_parameter_validation(self, tmp_path):
        path = write(tmp_path, self.FAMILY.replace("0, 0.25, 0.5", "0, 0.8"))
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("t_values", ["nan", "0, nan"])
    def test_nan_parameter_rejected_at_parse_time(self, tmp_path, t_values):
        path = write(tmp_path, self.FAMILY.replace("0, 0.25, 0.5", t_values))
        with pytest.raises(ConfigError, match=r"\[family\]"):
            parse_config(path)

    def test_each_metric_spectrum_computed_once(self, tmp_path, monkeypatch):
        # the family-n4 benchmark shape on a smaller grid: identity metric
        # at t = 0, six parameters
        ts = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        path = write(tmp_path, f"""
[problem]
n = 4
grid = 8
[family]
t_values = {", ".join(map(str, ts))}
[beta1]
e11 = 1.4 + 0.1*cos(x1)
e34 = 0.04*cos(x1 + x4)
[density1]
expression = exp(0.3*sin(x3 + x4))
[bounds]
c_beta_omega = 4
""")
        calls = []
        eig_extreme = solver.eig_extreme

        def counted(m, signs):
            calls.append(signs)
            return eig_extreme(m, signs)

        monkeypatch.setattr(solver, "eig_extreme", counted)
        spec = parse_config(path)
        assert all(row.converged for row in family_run(spec).rows)
        # a range is the only caller that asks for a largest eigenvalue alone
        assert calls.count((-1,)) == 2 + sum(t > 0 for t in ts)

        # the t = 0 fiber is the constant start problem, one 4x4 matrix
        tracemalloc.start()
        try:
            fiber = spec.fiber(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fiber.f.nbytes / 2
        assert fiber is spec.start
        assert fiber.gamma.strides[:4] == (0, 0, 0, 0)


# every numeric key with a valid value
NUMERIC_KEYS = {
    ("problem", "n"): "3",
    ("problem", "grid"): "8",
    ("solver", "tol"): "1e-10",
    ("solver", "max_iter"): "50",
    ("solver", "epsilon"): "1e-5",
    ("bounds", "c_beta_omega"): "3",
    ("bounds", "budget"): "10",
    ("family", "t_values"): "0, 0.5",
}
HOSTILE = ("nan", "inf", "-inf", "-1", "0", "2.5", "1e-320", "three", "1/0", "", "5%")


@settings(max_examples=60, deadline=None)
@given(
    hostile=st.dictionaries(st.sampled_from(sorted(NUMERIC_KEYS)), st.sampled_from(HOSTILE), max_size=3),
    family=st.booleans(),
)
def test_hostile_numbers_end_in_config_error(hostile, family):
    # a few hostile keys at a time, so that every key is reached
    sections = {}
    for (section, key), value in {**NUMERIC_KEYS, **hostile}.items():
        if section != "family" or family:
            sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
    if family:
        text += "[beta1]\ne11 = 1.5 + 0.1*cos(x1)\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/run.ini"
        with open(path, "w") as fh:
            fh.write(text)
        try:
            parsed = parse_config(path)
        except ConfigError:
            return
    assert isinstance(parsed, FamilySpec if family else TorusProblem)
