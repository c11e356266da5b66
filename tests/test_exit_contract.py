"""Every input ends in a documented exit code (0/2/3/4/5), never a traceback.

Random INI sections, keys and values go through ``n1ma solve``, ``verify``
and ``family``; random bytes and field headers go through ``[density] file``.
The keys that size a run (``n``, ``grid``, ``max_iter``, ``t_values``) take
small or invalid values only, so every run stays on an 8^3 (or 8^4) grid
with at most three Newton steps per loop.
"""

import contextlib
import io
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n1ma.cli import main
from n1ma.grid import FORMAT_VERSION, MAGIC, write_field

EXIT_CODES = {0, 2, 3, 4, 5}
SHAPE = (8, 8, 8)

# the keys that size a run, always present: (small values, invalid values)
SIZED = {
    ("problem", "n"): (["3", "3", "3", "4"], ["2", "6", "-3", "nan", "three", "3.0", ""]),
    ("problem", "grid"): (["8", "8", "8,8,8", "8,10,8"], ["8,8,8,8,8,8", "7", "0", "-8", "nan", "8.5", ""]),
    ("solver", "max_iter"): (["1", "2", "3"], ["0", "-1", "nan", "2.5", ""]),
    ("family", "t_values"): (["0, 0.5", "0, 0.25, 0.5", "0.5, 0.1, 0.1", "0"], ["0.6", "-0.1", "nan", "", ","]),
}
# values a run may accept: numbers, and expressions (with a cone exit at
# epsilon = 0.5, a stiff density and a constant out of the float range)
NUMBERS = ["1e-10", "1e-3", "0.5", "3", "100"]
EXPRESSIONS = [
    "1", "2.5", "exp(8*cos(x1))", "exp(40*cos(x1))", "exp(0.3*cos(x2))", "1.4 + 0.1*cos(x1)",
    "0.05*sin(x2)", "1e-300*exp(cos(x1))", "2 + cos(x1)*sin(x3)",
]
METRIC_KEYS = ["expression", "e11", "e12", "e13", "e22", "e23", "e33", "e44", "e21", "e1", "file"]
# section -> (keys, the values a run may accept for them)
KEYS = {
    "solver": (["tol", "epsilon"], NUMBERS),
    "beta": (METRIC_KEYS, EXPRESSIONS),
    "beta1": (METRIC_KEYS, EXPRESSIONS),
    "density": (["expression", "file"], EXPRESSIONS),
    "density1": (["expression", "file"], EXPRESSIONS),
    "bounds": (["c_beta_omega", "budget"], NUMBERS),
}
# values every key must reject: bad numbers, bad expressions, and
# expressions deeper than the parser and evaluator can recurse
HOSTILE = [
    "0", "-1", "1e-320", "1e308", "nan", "inf", "", "x1", "x4", "log(0)", "9^9^9", "((1)", "1/0", "5%",
    "+".join(["1"] * 2000), "(" * 1200 + "1" + ")" * 1200, "-" * 1200 + "1", "exp(" * 400 + "0" + ")" * 400,
]
# file values point into the example's directory: a valid 8^3 field, a
# metric prefix with valid entry files, a missing file and the directory
FILES = ["{dir}/good.n1ma", "{dir}/metric", "{dir}/missing.n1ma", "{dir}"]
PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
NAMES = st.text(st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")), min_size=1, max_size=8)


def run(command, text, files=None):
    """Exit code of ``n1ma command`` on the config text, whose ``{dir}`` is
    a fresh directory holding the field files ``files`` (name -> bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        write_field(f"{tmp}/good.n1ma", np.ones(SHAPE))
        for i in range(3):
            for j in range(i, 3):
                write_field(f"{tmp}/metric_{i + 1}{j + 1}.n1ma", np.full(SHAPE, float(i == j)))
        for name, data in (files or {}).items():
            with open(f"{tmp}/{name}", "wb") as fh:
                fh.write(data)
        path = f"{tmp}/run.ini"
        with open(path, "w") as fh:
            fh.write(text.replace("{dir}", tmp))
        argv = [command, "-c", path, "-o", f"{tmp}/out"]
        if command == "verify":
            argv += ["--samples", "50", "--trials", "2"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


def ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@st.composite
def configs(draw, command):
    """Config text for command: mostly well-formed, with a few random keys;
    a family section for ``family`` (and rarely for the others)."""
    rarely = st.sampled_from([False] * 15 + [True])
    family = (command == "family") != draw(rarely)
    sections = {}
    for (section, key), (small, invalid) in SIZED.items():
        if section != "family" or family:
            sections.setdefault(section, {})[key] = draw(st.sampled_from(invalid if draw(rarely) else small))
    for _ in range(draw(st.integers(0, 4))):
        section = draw(st.sampled_from(sorted(KEYS)))
        keys, values = KEYS[section]
        key = draw(st.sampled_from(keys))
        if key == "file":
            pool = st.sampled_from(FILES)
        elif draw(rarely):
            pool = st.one_of(st.sampled_from(HOSTILE), PRINTABLE)
        else:
            pool = st.sampled_from(values)
        sections.setdefault(section, {})[key] = draw(pool)
    for _ in range(draw(st.integers(0, 2))):
        section, key = draw(NAMES), draw(NAMES)
        if (section, key) not in SIZED and key != "file":
            sections.setdefault(section, {})[key] = draw(PRINTABLE)
    return ini(sections)


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("solve", "[problem]\ngrid = 8\n", 0),
        ("solve", "[problem]\ngrid = 8\n[solver]\nmax_iter = 3\nepsilon = 0.5\n"
         "[density]\nexpression = exp(8*cos(x1))\n", 2),
        ("verify", "[problem]\ngrid = 8\n[solver]\nmax_iter = 3\nepsilon = 0.5\n"
         "[density]\nexpression = exp(8*cos(x1))\n", 2),
        ("family", "[problem]\ngrid = 8\n[solver]\nmax_iter = 3\nepsilon = 0.5\n"
         "[family]\nt_values = 0, 0.5\n[density]\nexpression = exp(8*cos(x1))\n", 2),
        ("verify", "[problem]\ngrid = 8\n[solver]\nmax_iter = 1\n"
         "[density]\nexpression = exp(0.3*cos(x2))\n", 3),
        ("family", "[problem]\ngrid = 8\n[family]\nt_values = 0, 0.5\n[bounds]\nbudget = 1\n", 4),
        ("solve", "[problem]\nn = 2\n", 5),
    ],
)
def test_each_documented_exit_is_reached(command, text, code):
    assert run(command, text) == code


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["solve", "verify", "family"]))
def test_random_configs_end_in_a_documented_exit(data, command):
    assert run(command, data.draw(configs(command))) in EXIT_CODES


@st.composite
def field_files(draw):
    """Random bytes, or a field file that is mostly well-formed: an 8^3
    header and payload, of which the magic, version, axis count, sizes or
    payload length are rarely broken, holding a few values tiled."""
    if draw(st.sampled_from([False] * 7 + [True])):
        return draw(st.binary(max_size=64))
    broken = set(draw(st.lists(st.sampled_from(["magic", "version", "ndim", "shape", "length"]), max_size=2)))
    magic = draw(st.binary(min_size=4, max_size=4)) if "magic" in broken else MAGIC
    version = draw(st.sampled_from([0, 2, 2**32 - 1])) if "version" in broken else FORMAT_VERSION
    shape = SHAPE
    if "shape" in broken:
        shape = tuple(draw(st.lists(st.sampled_from([8, 0, 7, 10, 2**32 - 1]), max_size=6)))
    ndim = draw(st.sampled_from([0, 2, 4, 5, 6, 2**32 - 1])) if "ndim" in broken else len(shape)
    header = struct.pack("<4sII", magic, version, ndim) + struct.pack(f"<{len(shape)}I", *shape)
    values = draw(st.one_of(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
        st.lists(st.floats(), min_size=1, max_size=4),
    ))
    payload = np.resize(np.array(values, dtype="<f8"), np.prod(SHAPE)).tobytes()
    if "length" in broken:
        extra = draw(st.sampled_from([-8, -1, 1, 8]))
        payload = payload[:extra] if extra < 0 else payload + b"\x01" * extra
    return header[:32].ljust(32, b"\x00") + payload


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["solve", "verify"]), data=field_files())
def test_random_field_files_end_in_a_documented_exit(command, data):
    text = "[problem]\nn = 3\ngrid = 8\n[solver]\nmax_iter = 3\n[density]\nfile = {dir}/density.n1ma\n"
    assert run(command, text, {"density.n1ma": data}) in EXIT_CODES
