#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized into one file.

Run from anywhere, with two checkouts of the repository:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads train eval --seeds 3001 3002 3003 --name my_change \\
        --claim train:wall_s

For every workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout, the parent first in even pairs and the change first in odd
ones. Each run's JSON metrics, the printed ``wall_s_fastest_repeat`` and
``wall_s_p50``, its digest and failed count are kept, with whether each
end-to-end metric of the change is inside the bound ``BENCHMARK.json``
fixes for it. ``BENCH_<name>.json`` in the change's checkout gets, per
workload and metric, both sides' median and quartiles, the pairs the
change won, and whether every digest matched. It is rewritten after every
pair, so a run cut short keeps what it measured. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Printed by perfbench/run.py but not in its JSON line.
PRINTED = (("wall_s_fastest_repeat", "lower"), ("wall_s_p50", "lower"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True,
                        help="one pair per seed")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the metric a gain is claimed on")
    return parser.parse_args(argv)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its JSON line plus the printed figures."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited with "
                           f"{done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    run = {"metrics": metrics, "failed": result["failed"],
           "attempted": result["attempted"], "digest": None, "env": None}
    printed = dict(PRINTED)
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("env "):
            run["env"] = json.loads(line[len("env "):])
        elif line.startswith("checks:"):
            run["digest"] = fields[-1]
        elif fields and fields[0] in printed:
            metrics[fields[0]] = float(fields[1])
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse the change is than the parent, as a share of the parent."""
    if parent == 0:
        return 0.0
    rel = (change - parent) / parent
    return rel if better == "lower" else -rel


def summarize(pairs: list[dict], directions: dict, bounds: dict) -> dict:
    metrics = {}
    for name, better in directions.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        p, c = quartiles(parent), quartiles(change)
        iqr = p["q3"] - p["q1"]
        gap = c["median"] - p["median"]
        entry = {
            "better": better,
            "parent": p,
            "change": c,
            "change_over_parent": gap / p["median"] if p["median"] else 0.0,
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_iqr": iqr,
            "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
            "in_json": name in bounds,
        }
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["median_within_bound"] = (
                worse_share(p["median"], c["median"], better) <= bounds[name])
        metrics[name] = entry
    return {
        "metrics": metrics,
        "digests_identical": all(p["parent"]["digest"] == p["change"]["digest"]
                                 for p in pairs),
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs)
                       for side in ("parent", "change")},
    }


def claim_verdict(summary: dict, metric: str) -> dict:
    """Wins in at least nine tenths of the pairs, and a median gap above the IQR."""
    entry = summary["metrics"][metric]
    gap = abs(entry["change"]["median"] - entry["parent"]["median"])
    sign = 1.0 if entry["better"] == "lower" else -1.0
    improved = sign * (entry["change"]["median"] - entry["parent"]["median"]) < 0
    return {
        "change_wins": entry["change_wins"],
        "pairs": entry["pairs"],
        "met": (improved and 10 * entry["change_wins"] >= 9 * entry["pairs"]
                and gap > entry["parent_iqr"]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    directions.update(PRINTED)
    out_path = change / f"BENCH_{args.name}.json"
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "method": "alternating parent/change pairs, the parent first in even "
                  "pairs, each side in its own checkout of the same benchmark "
                  "code; medians with [q1, q3]; wall_s is the benchmark's "
                  "best-of-run estimate, wall_s_fastest_repeat and wall_s_p50 "
                  "are printed by the benchmark beside it",
        "environment": None,
        "claim": None,
        "workloads": {},
    }
    claim = args.claim.split(":", 1) if args.claim else None
    for workload in args.workloads:
        pairs = []
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"pair": index, "seed": seed, "first": order[0]}
            for side in order:
                started = time.perf_counter()
                run = run_bench(parent if side == "parent" else change,
                                workload, seed, seconds)
                env = run.pop("env")
                record["environment"] = record["environment"] or env
                pair[side] = run
                print(f"{workload} seed {seed} {side:<6} "
                      f"wall_s {run['metrics']['wall_s']:.4f} "
                      f"fastest {run['metrics']['wall_s_fastest_repeat']:.4f} "
                      f"failed {run['failed']} ({time.perf_counter() - started:.0f} s)",
                      flush=True)
            pair["within_bound"] = {
                name: worse_share(pair["parent"]["metrics"][name],
                                  pair["change"]["metrics"][name],
                                  directions[name]) <= bound
                for name, bound in bounds.items()
            }
            pairs.append(pair)
            summary = summarize(pairs, directions, bounds)
            record["workloads"][workload] = {**summary, "pairs": pairs}
            if claim and claim[0] == workload:
                record["claim"] = {"workload": workload, "metric": claim[1],
                                   "rule": "change wins >= 9/10 pairs and "
                                           "|median difference| > parent IQR",
                                   **claim_verdict(summary, claim[1])}
            out_path.write_text(json.dumps(record, indent=1) + "\n")
        for name, entry in record["workloads"][workload]["metrics"].items():
            print(f"  {name:<24} parent {entry['parent']['median']:.5g} "
                  f"change {entry['change']['median']:.5g} "
                  f"({entry['change_over_parent']:+.1%}) "
                  f"wins {entry['change_wins']}/{entry['pairs']}")
    if record["claim"]:
        print(f"claim {args.claim}: {'met' if record['claim']['met'] else 'NOT met'}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
