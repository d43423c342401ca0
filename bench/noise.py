#!/usr/bin/env python3
"""Repeatability record for the benchmark (see NOISE.md).

Runs the benchmark command of BENCHMARK.json on every workload, ten
seeds per set and two sets, and prints for every end-to-end metric the
spread the driver computes — the distance between the first and third
quartile of the ten values as a share of their median — and how far the
second set's median is worse than the first's, beside the metric's bound
and what ISSUE 13's rule — max(3 %, twice the difference between the two
sets' medians) — would make of that pair alone.

    python3 bench/noise.py [--runs 10] [--sets 2] [--workload NAME ...]

Run it from the repository root. It builds nothing itself: the first
benchmark run builds the package.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seed = 1000
    worst_wall = 0.0
    print("| workload | metric | " + " | ".join(
        f"set {s + 1} median | set {s + 1} IQR/median" for s in range(args.sets))
        + " | worse by | 2 x difference, at least 3 % | bound |")
    print("|---|---|" + "---|" * (2 * args.sets + 3))
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            rows = []
            for _ in range(args.runs):
                seed += 1
                values, wall = run(bench["command"], w, seed, bench["run_seconds"])
                worst_wall = max(worst_wall, wall)
                rows.append(values)
                print(f"# {w} seed {seed} {wall:.1f}s " + " ".join(
                    f"{k}={v:.6g}" for k, v in values.items()), file=sys.stderr, flush=True)
            sets.append(rows)
        for m in metrics:
            cells = []
            medians = []
            for rows in sets:
                values = [r[m["name"]] for r in rows]
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:.6g} | {100 * spread(values):.2f} %")
            worse = 0.0
            if len(medians) > 1:
                delta = (medians[-1] - medians[0]) / medians[0]
                worse = delta if m["better"] == "lower" else -delta
            print(f"| {w} | {m['name']} | " + " | ".join(cells)
                  + f" | {100 * worse:+.2f} % | {max(3.0, 200 * abs(worse)):.1f} %"
                  + f" | {100 * m['bound']:.0f} % |", flush=True)
    print(f"\nlongest run: {worst_wall:.1f} s wall")


if __name__ == "__main__":
    main()
