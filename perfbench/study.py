#!/usr/bin/env python3
"""Steadiness study for the benchmark.

Runs the command from BENCHMARK.json in two interleaved sets (A and B) of
ten runs per workload, one seed per run index (seeds 100-109 in both
sets), alternating which set goes first. For every end-to-end metric it
reports each set's median and quartile spread (IQR / median, quartiles from
`statistics.quantiles(values, n=4)`), and how far set B's median moved from
set A's in the metric's worse direction. The result is written as JSON.

Run from the repository root:

    python3 perfbench/study.py --out perfbench/steadiness.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10
SEEDS = [100 + i for i in range(RUNS)]
SETS = "AB"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {s: {w: {m: [] for m in metrics} for w in workloads} for s in SETS}
    walls = []
    for i, seed in enumerate(SEEDS):
        order = SETS if i % 2 == 0 else SETS[::-1]
        for s in order:
            for w in workloads:
                result, wall = run_once(bench["command"], w, seed, seconds)
                walls.append(wall)
                for m in metrics:
                    values[s][w][m].append(result["metrics"][m]["value"])
                print(f"set {s} run {i} seed {seed} {w}: "
                      + ", ".join(f"{m}={result['metrics'][m]['value']:.4g}"
                                  for m in metrics)
                      + f" (wall {wall:.1f} s)", flush=True)

    report = {
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "seeds": SEEDS,
        "nproc": os.cpu_count(),
        "max_run_wall_s": max(walls),
        "workloads": {},
    }
    for w in workloads:
        entry = {}
        for m, spec in metrics.items():
            per_set = {s: summarize(values[s][w][m]) for s in SETS}
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            entry[m] = {"bound": spec["bound"], "sets": per_set,
                        "values": {s: values[s][w][m] for s in SETS},
                        "median_shift_worse": worse}
            print(f"{w}/{m}: " + "; ".join(
                f"{s} median {per_set[s]['median']:.4g} spread {per_set[s]['spread']:.3f}"
                for s in SETS)
                + f"; B vs A worse by {worse:+.3f} (bound {spec['bound']})")
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
