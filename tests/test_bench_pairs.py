"""The verdicts of ``tools/bench_pairs.py``, from synthetic runs: no
benchmark is run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]
# ten parent runs: median 1.0, interquartile range 0.025
PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdicts(parent, change, name="wall_s"):
    """``(within_bound, gain_shown, change_better_in_pairs)`` of one metric."""
    runs = {
        side: [{"metrics": {m["name"]: {"value": v} for m in METRICS}} for v in values]
        for side, values in (("parent", parent), ("change", change))
    }
    record = load_bench_pairs().compare(runs, METRICS)[name]
    return record["within_bound"], record["gain_shown"], record["change_better_in_pairs"]


def test_a_clear_gain_is_shown():
    assert verdicts(PARENT, [v - 0.2 for v in PARENT]) == (True, True, "10/10")


def test_eight_wins_in_ten_show_no_gain():
    change = [v - 0.2 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]]
    assert verdicts(PARENT, change) == (True, False, "8/10")


def test_a_gain_inside_the_parent_spread_is_not_shown():
    # ten wins, but by less than the parent's interquartile range
    assert verdicts(PARENT, [v - 0.01 for v in PARENT]) == (True, False, "10/10")


def test_the_bound_applies_to_the_medians():
    assert verdicts(PARENT, [1.2 * v for v in PARENT]) == (True, False, "0/10")
    assert verdicts(PARENT, [1.3 * v for v in PARENT]) == (False, False, "0/10")


def test_higher_is_better_metrics_turn_both_verdicts_round():
    assert verdicts(PARENT, [v + 0.2 for v in PARENT], "rate") == (True, True, "10/10")
    assert verdicts(PARENT, [0.8 * v for v in PARENT], "rate") == (True, False, "0/10")
    assert verdicts(PARENT, [0.7 * v for v in PARENT], "rate") == (False, False, "0/10")
