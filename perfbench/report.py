"""Steadiness report: run the benchmark over several seeds per workload.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --workloads long-scripted --seeds 1-5 --json out.json

Prints, per workload and metric, the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles(n=4)``)
next to the metric's bound from ``BENCHMARK.json``, plus the run's wall
time and correctness.  Records nproc and the Python and numpy versions.
Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(results: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread (interquartile distance over the median)
    of each metric over the runs' results."""
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                         "bound": bound}
    return summary


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in declared[kind]}
    report = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "numpy": np.__version__, "seconds": args.seconds, "trace": args.trace,
              "summary": {}, "runs": {}}
    print(f"nproc={report['nproc']} python={report['python']} numpy={report['numpy']}")
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            wall = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            runs.append({"seed": seed, "wall_s": wall, "exit": done.returncode,
                         "result": result})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"  {workload} seed {seed}: {status} in {wall:.1f} s", flush=True)
            if status != "ok":
                print(done.stderr[-2000:], file=sys.stderr)
        report["runs"][workload] = runs
        # Only runs that passed the correctness gate are summarised.
        good = [r["result"] for r in runs if r["result"] and r["result"]["correct"]]
        print(f"{workload}: {len(good)}/{len(runs)} runs correct, "
              f"{len(runs) - len(good)} left out of the summary, "
              f"wall median {statistics.median(r['wall_s'] for r in runs):.1f} s")
        report["summary"][workload] = summary = summarize(good, bounds)
        for name, row in summary.items():
            bound = "" if row["bound"] is None else f" bound {row['bound']:.2f}"
            print(f"  {name:32s} {row['median']:12.5g} {row['unit']:9s} q1 {row['q1']:12.5g}"
                  f" q3 {row['q3']:12.5g} spread {row['spread']:7.2%}{bound}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
