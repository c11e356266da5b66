"""Benchmark of n1ma: one run of one workload, reported as one JSON line.

    python3 bench/run.py --workload solve-m64 --seed 1 --seconds 24 --trace 0

Workloads: ``solve-m64`` (64^3 manufactured solve), ``family-n4`` (six
fibers of an n = 4 family) and ``checks-n4`` (form and cone audits).  Every
run uses fresh processes with OpenBLAS and OpenMP pinned to one thread:
several that only set up (for the median ``setup_s``) and one that also
times and checks the workload.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("solve-m64", "family-n4", "checks-n4")
SETUP_ONLY_RUNS = 3  # plus the measuring process: four set-up samples
TIMEOUT_S = 150  # whole run, well inside the 180 s a run may take
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child(args, deadline):
    """Run the worker in a fresh process; return its last stdout line as JSON."""
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args, "--t0", repr(t0)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "n1ma", "cli.py")):
        print(f"bench: no n1ma sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            _child(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_ONLY_RUNS)
        ]
        run = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    passes = run["passes"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} timed passes, "
          f"{run['attempted']} commands, {run['failed']} failed")
    print(f"  passes {', '.join(f'{p:.3f}' for p in passes)} s (CPU {run['cpu_per_pass_s']:.3f} s per pass)")
    print(f"  set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        print("  self time per span (median over traced passes):")
        for name, value in sorted(run["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:32s} {value:.4f} s")
        metrics = run["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    correct = not run["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
