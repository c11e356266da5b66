"""Alternating-pair benchmark of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload solve-m64 \
        --pairs 10 --seconds 30 --out BENCH.json

Each pair runs the ``bench/run.py`` of both checkouts at one seed (pair i uses
seed ``--seed + i``), each run in its own process tree, alternating which side
goes first: the parent in even pairs, the change in odd ones.  The final JSON
line of each run gives its end-to-end metrics.  The record keeps, for each
metric of the change's ``BENCHMARK.json`` and each side, every run, the median
and the quartiles, and counts the pairs in which the change was better.  It
states two verdicts per metric: ``within_bound``, the change's median inside
the metric's bound from the parent's, and ``gain_shown``, a win in at least 9
of 10 pairs by a median margin wider than the parent's interquartile range.

``--trace`` adds one ``--trace 1`` run per side, recording its per-layer
metrics and the self time of every span.  ``--quick`` is a smoke run: two
pairs of 3 s.  ``--out`` merges the workload's record into a JSON file, so
that one file collects every workload; without it the record is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata

SIDES = ("parent", "change")
SELF_TIME = re.compile(r"^ {4}(\S+)\s+([-0-9.e]+) s$")


def bench_run(checkout, workload, seed, seconds, trace=0):
    """One ``bench/run.py`` run: its final JSON object, plus ``self_s`` when traced."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: {checkout}: run.py exited {proc.returncode} without a JSON line")
    if trace:
        result["self_s"] = {m[1]: float(m[2]) for m in map(SELF_TIME.match, lines) if m}
    return result


def summary(values):
    q25, median, q75 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q25": round(q25, 4), "q75": round(q75, 4),
            "runs": [round(v, 4) for v in values]}


def compare(runs, metrics):
    """Per metric: each side's runs and quartiles, the pairs the change won,
    and two verdicts.  ``within_bound``: the change's median is at most
    ``1 + bound`` times the parent's (at least ``1 - bound`` times it for a
    higher-is-better metric), with the metric's bound from
    ``BENCHMARK.json``.  ``gain_shown``: the change won at least 9 in 10
    pairs and its median is better than the parent's by more than the
    parent's interquartile range.  Verdicts use the unrounded values."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        pairs = len(values["parent"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        q25, parent_median, q75 = statistics.quantiles(values["parent"], n=4)
        change_median = statistics.quantiles(values["change"], n=4)[1]
        gain = parent_median - change_median if lower else change_median - parent_median
        limit = parent_median * (1 + metric["bound"] if lower else 1 - metric["bound"])
        parent, change = summary(values["parent"]), summary(values["change"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_better_in_pairs": f"{wins}/{pairs}",
            "parent_iqr": round(q75 - q25, 4),
            "median_change_rel": round(change["median"] / parent["median"] - 1, 4),
            "within_bound": change_median <= limit if lower else change_median >= limit,
            "gain_shown": 10 * wins >= 9 * pairs and gain > q75 - q25,
        }
    return out


def machine():
    versions = {name: metadata.version(name) for name in ("numpy", "scipy")}
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        models = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions,
            "blas": "one thread (bench/run.py pins it)"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--trace", action="store_true", help="add one traced run per side")
    parser.add_argument("--quick", action="store_true", help="smoke run: 2 pairs of 3 s")
    parser.add_argument("--out", help="JSON file to merge the record into")
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs, args.seconds = 2, 3.0
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = {side: [] for side in SIDES}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = bench_run(checkouts[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: "
                  + ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4f}" for m in metrics),
                  file=sys.stderr)
    everything = runs["parent"] + runs["change"]
    record = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "first_in_pair": [SIDES[i % 2] for i in range(args.pairs)],
        "all_correct": all(r["correct"] for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        **compare(runs, metrics),
    }
    if args.trace:
        record["trace"] = {}
        for side in SIDES:
            traced = bench_run(checkouts[side], args.workload, args.seed, args.seconds, trace=1)
            record["trace"][side] = {
                "correct": traced["correct"],
                "layers": {name: m["value"] for name, m in traced["metrics"].items()},
                "self_s": traced["self_s"],
            }

    if not args.out:
        print(json.dumps(record, indent=1))
        return 0
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["machine"] = machine()
    # the docstring's paragraph on how pairs are run, on one line
    doc["method"] = " ".join(__doc__.split("\n\n")[2].split())
    doc.setdefault("workloads", {})[args.workload] = record
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
