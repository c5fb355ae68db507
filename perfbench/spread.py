#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 perfbench/spread.py --workload stats-ed25519 --seeds 1-10 --label a
    python3 perfbench/spread.py --workload all --seeds 11-20 --label b

Runs perfbench/run.py once per seed (untraced, one after another) and
reports, per metric, the median, the first and third quartiles
(statistics.quantiles(n=4)) and their distance as a share of the median,
next to the metric's bound from BENCHMARK.json. Writes
perfbench/out/spread-<label>.json.
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


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()
    report = {}
    for name in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{name} seed {seed}: {result['run_s']:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"], "unit": metric["unit"], "values": values}
        report[name] = {"seeds": args.seeds, "metrics": rows,
                        "correct": all(r["correct"] for r in runs),
                        "failed_share": [r["failed"] / r["attempted"] for r in runs],
                        "run_s": [r["run_s"] for r in runs]}
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, row in rows.items():
            print(f"{metric:24} {row['median']:12.5g} {row['q1']:12.5g} {row['q3']:12.5g} "
                  f"{row['spread']:8.4f} {row['bound']:6.2f}")
        print(f"mean run time {statistics.fmean(report[name]['run_s']):.1f} s", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
