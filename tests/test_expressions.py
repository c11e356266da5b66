import ast
from pathlib import Path

import numpy as np
import pytest

from n1ma.config import parse_config
from n1ma.errors import ConfigError
from n1ma.expressions import compile_expression


def ev(text, n=3, coords=None):
    if coords is None:
        coords = [np.zeros(1) for _ in range(n)]
    return compile_expression(text, n)(coords)


class TestParsing:
    def test_precedence(self):
        assert ev("2 + 3 * 4^2")[0] == 50.0

    def test_power_right_associative(self):
        assert ev("2^3^2")[0] == 512.0

    def test_unary_minus(self):
        assert ev("-2^2")[0] == -4.0
        assert ev("3 - -2")[0] == 5.0
        assert ev("--2")[0] == 2.0
        assert ev("2^-1")[0] == 0.5

    def test_parentheses(self):
        assert ev("(2 + 3) * 4")[0] == 20.0

    def test_functions_and_constants(self):
        assert ev("sin(pi/2) + cos(0) + log(e)")[0] == pytest.approx(3.0)
        assert ev("exp(0)")[0] == 1.0

    def test_abs(self):
        assert ev("abs(-2.5) + abs(3)")[0] == 5.5
        # the near-singular density of the grid-ladder study
        x = np.linspace(0.0, 2 * np.pi, 33)
        f = ev("(abs(sin(x1/2)) + 1e-3)^-0.8", 1, [x])
        assert np.array_equal(f, (np.abs(np.sin(x / 2)) + 1e-3) ** -0.8)

    def test_scientific_notation(self):
        assert ev("1.5e-3 + 2E2")[0] == pytest.approx(200.0015)
        # leading zeros are plain decimal digits, as in the exponent
        assert ev("007")[0] == 7.0
        assert ev("00.5")[0] == 0.5
        assert ev("1e007")[0] == 1e7
        assert ev("1/" + "1" * 5000)[0] == 0.0

    def test_division(self):
        assert ev("7/2")[0] == 3.5

    def test_continuation_line_value(self, tmp_path):
        # configparser joins an indented continuation line with a newline
        path = tmp_path / "run.ini"
        path.write_text("[problem]\ngrid = 8\n[density]\nexpression = 1 +\n 2\n")
        assert np.all(parse_config(str(path)).f == 3.0)


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            ev("y + 1")

    def test_unknown_function(self):
        with pytest.raises(ConfigError):
            ev("tan(x1)")

    def test_out_of_range_variable(self):
        with pytest.raises(ConfigError):
            ev("x4", n=3)

    def test_trailing_garbage(self):
        with pytest.raises(ConfigError):
            ev("1 + 2 )")

    def test_bad_character(self):
        # blanks before a bad character are skipped, so the message names it
        for text, message in (
            ("1 & 2", "'&' at position 2"),
            ("1 + 0.1*cos(x1) % 2", "'%' at position 16"),
            # digits and blanks are ASCII only
            ("\u0661", "'\u0661' at position 0"),
            ("2\u0663", "'\u0663' at position 1"),
            ("\u0661e\u0662", "'\u0661' at position 0"),
            ("x\u0661", "'\u0661' at position 1"),
            ("1\xa0+ 2", r"'\\xa0' at position 1"),
        ):
            with pytest.raises(ConfigError, match=f"unexpected character {message}$"):
                ev(text)

    def test_unbalanced_paren(self):
        with pytest.raises(ConfigError):
            ev("sin(x1")

    @pytest.mark.parametrize(
        "text",
        ["2**3", "7//2", "+1", "1_0", "0x1f", "1j", "True", "None", "x1 if x2 else x3", "not x1",
         "sin(x1, x2)", "sin()", "(2)(3)", "sin", "pi(2)", "x1.real", "1if 1else 2"],
    )
    def test_python_only_syntax_rejected(self, text, recwarn):
        with pytest.raises(ConfigError):
            ev(text)
        assert not recwarn.list


class TestGridEvaluation:
    def test_matches_numpy(self):
        xs = [np.linspace(0, 2 * np.pi, 9)[:, None], np.linspace(0, 2 * np.pi, 7)[None, :]]
        fn = compile_expression("1 + 0.5*cos(x1)*sin(x2) - x2/4", 2)
        expected = 1 + 0.5 * np.cos(xs[0]) * np.sin(xs[1]) - xs[1] / 4
        assert np.allclose(fn(xs), expected)

    def test_constant_broadcasts(self):
        xs = [np.zeros((4, 5)), np.ones((4, 5))]
        out = compile_expression("2.5", 2)(xs)
        assert out.shape == (4, 5)
        assert np.all(out == 2.5)

    def test_coordinate_count_checked(self):
        fn = compile_expression("x1", 2)
        with pytest.raises(ConfigError):
            fn([np.zeros(3)])


def test_no_dynamic_code():
    # configs stay data: the modules that read them never run code
    src = Path(__file__).resolve().parents[1] / "src" / "n1ma"
    for name in ("expressions.py", "config.py"):
        tree = ast.parse((src / name).read_text())
        found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not found & {"eval", "exec", "compile", "__import__"}, name

