"""The verdicts of scripts/bench_pairs.py on hand-made pairs of runs."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"wall_s": "lower", "steps_per_s": "higher"}
BOUNDS = {"wall_s": 0.25, "steps_per_s": 0.25}
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
# statistics.quantiles(PARENT, n=4, method="inclusive")
PARENT_Q1, PARENT_MEDIAN, PARENT_Q3 = 12.25, 14.5, 16.75


def run(metrics, digest="d0", failed=0):
    return {"metrics": metrics, "digest": digest, "failed": failed}


def make_pairs(parent, change, name="wall_s", other="steps_per_s"):
    """Pairs whose ``name`` reads ``parent[i]``/``change[i]``, ``other`` fixed."""
    return [
        {"parent": run({name: p, other: 1.0}), "change": run({name: c, other: 1.0})}
        for p, c in zip(parent, change)
    ]


def summary_of(parent, change, name="wall_s"):
    other = "steps_per_s" if name == "wall_s" else "wall_s"
    return bench_pairs.summarize(make_pairs(parent, change, name, other),
                                 DIRECTIONS, BOUNDS)


def test_worse_share_in_both_directions():
    assert math.isclose(bench_pairs.worse_share(1.0, 1.1, "lower"), 0.1)
    assert math.isclose(bench_pairs.worse_share(1.0, 0.9, "lower"), -0.1)
    assert math.isclose(bench_pairs.worse_share(100.0, 90.0, "higher"), 0.1)
    assert math.isclose(bench_pairs.worse_share(100.0, 110.0, "higher"), -0.1)
    assert bench_pairs.worse_share(0.0, 5.0, "lower") == 0.0


def test_summary_quartiles_wins_and_iqr_ratio():
    # Pair 0 gets slower; the other nine get 6 s faster.
    change = [PARENT[0] + 1.0] + [p - 6.0 for p in PARENT[1:]]
    entry = summary_of(PARENT, change)["metrics"]["wall_s"]
    assert entry["parent"] == {"q1": PARENT_Q1, "median": PARENT_MEDIAN,
                               "q3": PARENT_Q3}
    assert entry["change"]["median"] == 9.5
    assert entry["change_wins"] == 9 and entry["pairs"] == 10
    assert entry["parent_iqr"] == PARENT_Q3 - PARENT_Q1
    assert math.isclose(entry["median_gap_over_parent_iqr"], 5.0 / 4.5)
    assert math.isclose(entry["change_over_parent"], -5.0 / 14.5)
    assert entry["in_json"] and entry["bound"] == 0.25
    assert entry["median_within_bound"]


def test_a_tie_is_not_a_win():
    entry = summary_of(PARENT, PARENT)["metrics"]["wall_s"]
    assert entry["change_wins"] == 0
    assert entry["median_within_bound"]


def test_claim_met_on_nine_wins_and_a_gap_above_the_iqr():
    change = [PARENT[0] + 1.0] + [p - 6.0 for p in PARENT[1:]]
    verdict = bench_pairs.claim_verdict(summary_of(PARENT, change), "wall_s")
    assert verdict == {"change_wins": 9, "pairs": 10, "met": True}


def test_claim_not_met_on_eight_wins():
    # The median gap, 6 s, is above the parent IQR: only the win count fails.
    change = [p + 1.0 for p in PARENT[:2]] + [p - 8.0 for p in PARENT[2:]]
    summary = summary_of(PARENT, change)
    assert summary["metrics"]["wall_s"]["change"]["median"] == 8.5
    verdict = bench_pairs.claim_verdict(summary, "wall_s")
    assert verdict["change_wins"] == 8
    assert not verdict["met"]


def test_claim_not_met_when_the_gap_is_inside_the_parent_iqr():
    # Every pair wins, but by 1 s against a 4.5 s spread.
    change = [p - 1.0 for p in PARENT]
    verdict = bench_pairs.claim_verdict(summary_of(PARENT, change), "wall_s")
    assert verdict["change_wins"] == 10
    assert not verdict["met"]


def test_claim_not_met_when_the_median_moves_the_wrong_way():
    # Pairwise wins need not move the median the same way.
    summary = {"metrics": {"wall_s": {
        "better": "lower", "parent": {"median": 10.0}, "change": {"median": 11.0},
        "change_wins": 10, "pairs": 10, "parent_iqr": 0.5,
    }}}
    assert not bench_pairs.claim_verdict(summary, "wall_s")["met"]


def test_claim_on_a_higher_is_better_metric():
    faster = [PARENT[0] - 1.0] + [p + 6.0 for p in PARENT[1:]]
    summary = summary_of(PARENT, faster, name="steps_per_s")
    assert summary["metrics"]["steps_per_s"]["change_wins"] == 9
    assert bench_pairs.claim_verdict(summary, "steps_per_s")["met"]
    # The same moves on a lower-is-better metric are losses.
    summary = summary_of(PARENT, faster, name="wall_s")
    assert summary["metrics"]["wall_s"]["change_wins"] == 1
    assert not bench_pairs.claim_verdict(summary, "wall_s")["met"]


def test_median_just_inside_and_just_outside_the_bound():
    parent = [1.0] * 5
    inside = summary_of(parent, [1.2499] * 5)["metrics"]["wall_s"]
    outside = summary_of(parent, [1.2501] * 5)["metrics"]["wall_s"]
    assert inside["median_within_bound"] and not outside["median_within_bound"]
    # No spread on the parent side: there is no IQR to compare the gap with.
    assert inside["median_gap_over_parent_iqr"] is None

    parent = [100.0] * 5
    inside = summary_of(parent, [75.01] * 5, "steps_per_s")["metrics"]["steps_per_s"]
    outside = summary_of(parent, [74.99] * 5, "steps_per_s")["metrics"]["steps_per_s"]
    assert inside["median_within_bound"] and not outside["median_within_bound"]


def test_printed_metric_has_no_bound():
    pairs = [{"parent": run({"wall_s_p50": p}), "change": run({"wall_s_p50": p})}
             for p in PARENT]
    directions = {"wall_s_p50": "lower"}
    entry = bench_pairs.summarize(pairs, directions, BOUNDS)["metrics"]["wall_s_p50"]
    assert not entry["in_json"]
    assert "median_within_bound" not in entry


def test_digests_and_failed_operations():
    pairs = make_pairs(PARENT[:3], PARENT[:3])
    summary = bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS)
    assert summary["digests_identical"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    pairs[1]["change"] = run(pairs[1]["change"]["metrics"], digest="d1", failed=2)
    pairs[2]["parent"]["failed"] = 1
    summary = bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS)
    assert not summary["digests_identical"]
    assert summary["failed_ops"] == {"parent": 1, "change": 2}
