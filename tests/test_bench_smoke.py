"""Each benchmark workload runs one pass and passes its own output checks.

``bench/worker.py`` checks a workload's outputs against values computed apart
from the program, and calls some package names itself (``frame_value``,
``equivalence_suite``, ``sample_spectra`` ...).  A change that breaks either
would otherwise show only in a benchmark run.  The worker writes under the
git-ignored ``.bench_out/``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"
# the BLAS pools pinned as bench/run.py pins them
PINNED = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")


@pytest.mark.parametrize("workload", ["solve-m64", "family-n4", "checks-n4"])
def test_workload_passes_its_checks(workload):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", "0", "--seconds", "0"]
    proc = subprocess.run(
        argv + ["--t0", repr(time.monotonic())],
        env=dict(os.environ, **PINNED, PYTHONHASHSEED="0"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0
