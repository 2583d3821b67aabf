#!/usr/bin/env python3
"""taxtrader benchmark: one closed-loop caller per workload.

Run from the repository root:

    python3 perfbench/run.py --workload eval --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

``--workload all`` runs every workload in a fresh process, one after
another. A single caller issues each operation after the previous one
completes, with BLAS pinned to one thread. Set-up is measured in
``SETUP_PROBES`` fresh processes and reported as their median.

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` times untraced repeats, then one traced repeat of the
same operation with per-call hooks on the package's public functions, and
reports the per-layer metrics and the tracing overhead.

The program is imported from ``src/`` of the checkout, never from an
installed copy. Output is a human-readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Full results, the
environment record and, when tracing, the spans are written to
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("train", "eval", "hold", "protocol")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = (Path("src") / "taxtrader" / "__init__.py",
            Path("data") / "synthetic_daily.csv",
            Path("scripts") / "run_paper_protocol.py")
# Share of the run spent on untraced repeats before the traced one.
TRACE_BASELINE_SHARE = 0.4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment_record() -> dict:
    import numpy

    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
    }


def child_command(args, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), *extra]


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import the package and set up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(child_command(args, args.workload, "--probe-setup"),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return samples


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Closed loop over one workload's operation; checks every repeat."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        self.times: list[float] = []
        self.segments: list[list[float]] = []

    def run_until(self, deadline: float) -> None:
        """Repeat the operation until the deadline; at least once."""
        while not self.attempted or time.perf_counter() < deadline:
            self.run_op()

    def run_op(self, record: bool = True) -> float:
        self.attempted += 1
        self.workload.begin(self.attempted)
        marks = self.tracer.marks
        with self.tracer.span("op"):
            marks.clear()
            start = time.perf_counter()
            try:
                output = self.workload.run()
            except Exception:
                self.fail(traceback.format_exc())
                return 0.0
            end = time.perf_counter()
        points = [start, *marks, end]
        elapsed = end - start
        try:
            digest = self.workload.check(output)
        except Exception:
            self.fail(traceback.format_exc())
            return elapsed
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.fail("output differs from the first repeat\n")
        if record:
            self.times.append(elapsed)
            self.segments.append([b - a for a, b in zip(points, points[1:])])
        return elapsed

    def best(self) -> float:
        """The operation's wall time with every segment at its fastest.

        Neighbours on a shared machine slow the CPU in bursts that last
        from milliseconds to minutes, longer than one repeat of the
        longer operations. The marks cut each repeat into the same
        segments (episodes, update iterations, phases), so the sum of
        each segment's fastest repeat is the steadiest estimate of the
        program's own cost, the reasoning behind ``timeit``'s minimum
        applied piecewise. Repeats that cut differently fall back to the
        fastest whole repeat.
        """
        if len({len(s) for s in self.segments}) != 1:
            return min(self.times)
        return sum(min(column) for column in zip(*self.segments))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"repeat {self.attempted}: {message}")


def end_to_end(loop, tracer, setup_samples) -> list[tuple]:
    """(name, value, unit, samples, in_json) for the untraced run.

    The JSON timings are best-of-run (see ``Loop.best``); the fastest
    whole repeat, medians and the p90 are printed beside them.
    """
    episodes = tracer.episode_ms
    best = loop.best()
    n = len(loop.times)
    rows = [
        ("setup_s", statistics.median(setup_samples), "s", len(setup_samples), True),
        ("wall_s", best, "s", n, True),
        ("steps_per_s", loop.workload.steps() / best, "1/s", n, True),
        ("episode_ms_min", min(episodes), "ms", len(episodes), False),
        ("wall_s_fastest_repeat", min(loop.times), "s", n, False),
        ("wall_s_p50", statistics.median(loop.times), "s", n, False),
        ("episode_ms_p50", statistics.median(episodes), "ms", len(episodes), False),
    ]
    if len(episodes) >= 2:
        p90 = percentile(episodes, 90)
        if sum(1 for e in episodes if e > p90) >= 10:
            rows.append(("episode_ms_p90", p90, "ms", len(episodes), False))
    if tracer.epoch_s:
        rows.append(("epoch_s_p50", statistics.median(tracer.epoch_s), "s",
                     len(tracer.epoch_s), False))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("peak_rss_mb", peak_mb, "MB", 1, True))
    rows.append(("failed_share", loop.failed / loop.attempted, "share",
                 loop.attempted, False))
    return rows


def traced_repeat(loop, tracer, workload) -> dict:
    """Run ``prepare`` and one operation with the call hooks on.

    The overhead is judged against ``prepare`` and the median operation
    run without them: one traced repeat is a typical sample, not a best.
    """
    untraced_start = time.perf_counter()
    workload.prepare()
    untraced = time.perf_counter() - untraced_start + statistics.median(loop.times)

    tracer.reset_aggregates()
    since = time.perf_counter()
    tracer.install_calls()
    try:
        with tracer.span("traced"):
            start = time.perf_counter()
            workload.prepare()
            traced = time.perf_counter() - start + loop.run_op(record=False)
    finally:
        tracer.remove_calls()
    return {"since": since, "until": time.perf_counter(), "traced_s": traced,
            "untraced_s": untraced, "aggs": {k: list(v) for k, v in tracer.aggs.items()},
            "hook_s": tracer.hook_s[0], "counts": dict(tracer.counts)}


def per_layer(tracer, traced: dict) -> tuple[list[tuple], list[tuple]]:
    """Per-layer metrics of the traced repeat, and its self-time table."""
    aggs = traced["aggs"]
    counts = traced["counts"]
    window = (traced["since"], traced["until"])

    def calls(name):
        return aggs.get(name, [0])[0]

    def per_call(name, scale, column=1):
        agg = aggs.get(name)
        return agg[column] / agg[0] * scale if agg and agg[0] else 0.0

    wall = traced["traced_s"]
    steps = calls("ledger.step_ledger")
    epochs = calls("ppo.run_epoch")
    rollout, update, epoch_total = tracer.epoch_phases(*window)
    train_s = tracer.span_seconds("protocol.train", *window)
    eval_s = tracer.span_seconds("protocol.eval", *window)
    seed_s = tracer.span_seconds("protocol.run_seed", *window)
    self_total = sum(agg[2] for agg in aggs.values())
    hook_s = traced["hook_s"]
    rows = []
    for name, unit, scale in (
        ("nets.sample_action", "us", 1e6), ("nets.forward", "us", 1e6),
        ("nets.forward_cached", "ms", 1e3), ("nets.backward", "ms", 1e3),
        ("nets.adam_step", "us", 1e6), ("nets.save_bundle", "ms", 1e3),
        ("ledger.step_ledger", "us", 1e6), ("ppo.compute_gae", "ms", 1e3),
    ):
        rows.append((f"{name}.{unit}_per_call", per_call(name, scale), unit))
        rows.append((f"{name}.calls", calls(name), "count"))
    rows += [
        ("nets.load_bundle.ms", per_call("nets.load_bundle", 1e3), "ms"),
        ("nets.load_bundle.calls", calls("nets.load_bundle"), "count"),
        ("market_data.load_csv.ms", per_call("market_data.load_csv", 1e3), "ms"),
        ("market_data.load_csv.calls", calls("market_data.load_csv"), "count"),
        ("env.step.self_us_per_call", per_call("env.step", 1e6, 2), "us"),
        ("env.step.calls", calls("env.step"), "count"),
        ("env.reset.calls", calls("env.reset"), "count"),
        ("ledger.trade_share", counts["trades"] / steps if steps else 0.0,
         "share"),
        ("ledger.realize_share",
         counts["realizes"] / steps if steps else 0.0, "share"),
        ("ppo.run_epoch.calls", epochs, "count"),
        ("ppo.run_epoch.self_ms_per_call", per_call("ppo.run_epoch", 1e3, 2), "ms"),
        ("ppo.rollout_share", rollout / epoch_total if epoch_total else 0.0, "share"),
        ("ppo.update_share", update / epoch_total if epoch_total else 0.0, "share"),
        ("ppo.policy_iters",
         counts["policy_backward"] / epochs if epochs else 0.0, "count"),
        ("cli.run_episodes.self_ms_per_call",
         per_call("cli.run_episodes", 1e3, 2), "ms"),
        ("cli.run_episodes.calls", calls("cli.run_episodes"), "count"),
        ("protocol.train_s", train_s, "s"),
        ("protocol.eval_s", eval_s, "s"),
        ("protocol.overlap", (train_s + eval_s) / seed_s if seed_s else 0.0, "ratio"),
        ("trace.wall_s", wall, "s"),
        ("trace.overhead_share", wall / traced["untraced_s"] - 1.0, "share"),
        ("trace.hook_share", hook_s / wall, "share"),
        ("trace.residual_share", (wall - self_total - hook_s) / wall, "share"),
    ]
    table = sorted(((name, agg[0], agg[1], agg[2]) for name, agg in aggs.items()
                    if agg[0]), key=lambda r: -r[3])
    table.append(("(hooks)", 0, hook_s, hook_s))
    table.append(("(residual)", 0, 0.0, wall - self_total - hook_s))
    return rows, table


def bench(args, work: Path) -> tuple[dict, list[str]]:
    from tracer import Tracer
    from workloads import WORKLOADS

    setup_samples = [] if args.trace else measure_setup(args)
    tracer = Tracer()
    workload = WORKLOADS[args.workload](ROOT, args.seed, work, tracer)
    workload.setup()
    tracer.install_boundary(getattr(workload, "module", None))
    loop = Loop(workload, tracer)
    start = time.perf_counter()
    try:
        if args.trace:
            loop.run_until(start + TRACE_BASELINE_SHARE * args.seconds)
            traced = traced_repeat(loop, tracer, workload)
            loop.run_until(start + args.seconds)
            rows, table = per_layer(tracer, traced)
            stepped = traced["aggs"].get("env.step", [0])[0]
            if stepped != workload.steps():
                loop.fail(f"traced repeat made {stepped} env steps, "
                          f"expected {workload.steps()}")
            json_names = {r[0] for r in rows}
            rows = [(n, v, u, 1, True) for n, v, u in rows]
        else:
            loop.run_until(start + args.seconds)
            rows, table = end_to_end(loop, tracer, setup_samples), []
            json_names = {r[0] for r in rows if r[4]}
    finally:
        tracer.restore()

    correct = loop.failed == 0
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}",
             "env " + json.dumps(environment_record(), sort_keys=True),
             f"{'metric':<36}{'value':>16}  {'unit':<6}{'n':>8}"]
    lines += [f"{n:<36}{v:>16.6g}  {u:<6}{k:>8}" for n, v, u, k, _ in rows]
    if table:
        lines.append(f"{'self time, traced repeat':<28}{'calls':>10}{'total_s':>12}"
                     f"{'self_s':>12}{'share':>8}")
        wall = traced["traced_s"]
        lines += [f"{n:<28}{c:>10}{t:>12.4f}{s:>12.4f}{s / wall:>8.3f}"
                  for n, c, t, s in table]
    for name in tracer.missing:
        lines.append(f"warning: hook target {name} not found")
    lines.append(f"checks: {loop.attempted} ops, {loop.failed} failed, "
                 f"digest {loop.reference}")
    lines += [f"problem: {p.rstrip()}" for p in loop.problems]

    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _, _ in rows
                    if n in json_names},
    }
    record = {"args": vars(args), "env": environment_record(), "result": result,
              "samples": {n: k for n, _, _, k, _ in rows},
              "digest": loop.reference, "problems": loop.problems}
    if args.trace:
        record["layers"] = table
        record["spans"] = tracer.spans_json(traced["since"], traced["until"])
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    return result, lines


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(child_command(args, workload), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a taxtrader checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.probe_setup:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](ROOT, args.seed, work, None).setup()
            return 0
        result, lines = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
