#!/usr/bin/env python3
# Copyright 2026 The pkgstream Authors.
"""Steadiness report: runs one workload k times and summarises each metric.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seeds 3,3,3]
        [--trace 0|1] [--save runs.json] [--baseline runs.json]

Run from the repository root. Each run is `perfbench/run.py` for
BENCHMARK.json's run_seconds with its own seed (1..--runs, or the explicit
--seeds list; repeat a seed to check that a deterministic metric repeats
exactly). For every metric it prints the median, the quartiles
(statistics.quantiles, n=4), the interquartile spread and (max - min), both
as shares of the median, and the metric's bound from BENCHMARK.json. A
metric whose quartile spread exceeds its bound is marked BEYOND; one above a
third of its bound is marked noisy.

--save writes every run's metrics to a JSON file; --baseline reads such a
file (for example, saved on the parent commit) and marks every metric whose
median got worse than the baseline median by more than its bound.
Exits non-zero when a run fails, a spread is BEYOND its bound, or a baseline
comparison regresses.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def summarise(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) if median else 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "range_share": (max(values) - min(values)) / scale}


def worse_share(metric, new, old):
    """How much worse `new` is than `old`, as a share of |old|."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", help="comma-separated seeds (overrides "
                        "--runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's metrics here")
    parser.add_argument("--baseline", help="compare medians against a file "
                        "written by --save")
    args = parser.parse_args()

    spec, bounds = load_benchmark()
    seconds = spec["run_seconds"]
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = list(range(1, args.runs + 1))

    runs, failed_runs = [], 0
    for seed in seeds:
        result, elapsed = run_once(args.workload, seed, seconds, args.trace)
        if result is None or not result["correct"] or result["failed"]:
            failed_runs += 1
            print(f"seed {seed}: FAILED ({elapsed:.1f} s)")
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "elapsed_s": elapsed, "metrics": values})
        shown = "  ".join(f"{k}={v:.6g}" for k, v in values.items())
        print(f"seed {seed}: {elapsed:.1f} s  {shown}", flush=True)
    if not runs:
        print("no successful runs")
        return 1

    baseline = None
    if args.baseline:
        saved = json.loads(Path(args.baseline).read_text())
        baseline = {name: statistics.median(r["metrics"][name]
                                            for r in saved["runs"])
                    for name in saved["runs"][0]["metrics"]}

    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, trace "
          f"{args.trace}, {failed_runs} failed")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  mark")
    bad = failed_runs > 0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        s = summarise(values)
        metric = bounds.get(name, {})
        bound = metric.get("bound")
        mark = ""
        if bound is not None:
            if s["iqr_share"] > bound:
                mark = "BEYOND bound"
                bad = True
            elif s["iqr_share"] > bound / 3:
                mark = "noisy (> bound/3)"
        if baseline is not None and name in baseline and bound is not None:
            worse = worse_share(metric, s["median"], baseline[name])
            mark += f"  vs baseline {worse:+.2%} worse"
            if worse > bound:
                mark += " REGRESSED"
                bad = True
        print(f"{name:34} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['iqr_share']:8.2%} "
              f"{s['range_share']:9.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>6}  {mark}")
    elapsed = [r["elapsed_s"] for r in runs]
    print(f"wall per run: median {statistics.median(elapsed):.1f} s, "
          f"max {max(elapsed):.1f} s")

    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "trace": args.trace, "runs": runs}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
