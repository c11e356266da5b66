"""The package loads scipy only where it is used.

``grid`` and ``solver`` import ``scipy.fft`` and ``scipy.sparse.linalg``
inside the functions that transform or run GMRES, so ``n1ma cones``,
``n1ma forms-check`` and every exit on bad input run without scipy.  The
check runs in a fresh interpreter: the test process has loaded scipy long
before.
"""

from conftest import fresh_python

SCRIPT = """
import contextlib, io, os, sys, tempfile

from n1ma.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), scipy_modules()
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    bad = os.path.join(out, "bad.ini")
    with open(bad, "w") as fh:
        fh.write("[problem]\\nn = 3\\ngrid = 8\\n[density]\\nexpression = -1\\n")
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [
            main(["cones", "--samples", "200", "--seed", "1", "-o", out]),
            main(["forms-check", "--n", "3", "--trials", "5", "--seed", "1", "-o", out]),
            main(["solve", "-c", bad, "-o", out]),
        ]
    assert codes == [0, 0, 5], codes
    assert not scipy_modules(), scipy_modules()
    assert main(["solve", "-c", "manufactured", "-o", out]) == 0
assert {"scipy.fft", "scipy.sparse.linalg"} <= set(scipy_modules())
"""


def test_cones_forms_check_and_bad_input_load_no_scipy():
    proc = fresh_python(SCRIPT)
    assert proc.returncode == 0, proc.stderr
