#!/usr/bin/env python3
"""Steadiness check of the benchmark, the way the driver judges it.

Runs BENCHMARK.json's command ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance
between the first and third quartile of its ten values as a share of
their median (statistics.quantiles(values, n=4)), next to the metric's
bound. The benchmark is steady when every spread except setup_s is below
its bound — aim for a third of it.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = args.workloads or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    values = {m: [] for m in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            sys.exit(f"{name} seed {seed}: {line['failed']} of {line['attempted']} runs failed")
        for m in bounds:
            values[m].append(line["metrics"][m]["value"])
        print(f"{name} seed {seed}: " + " ".join(f"{m}={values[m][-1]:.4f}" for m in bounds), flush=True)
    for m, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        if m != "setup_s":
            worst = max(worst, spread / bounds[m])
        print(f"  {name:22s} {m:12s} median {med:9.4f}  spread {100*spread:5.1f}%  bound {100*bounds[m]:4.0f}%")
print(f"worst spread/bound (setup_s excluded): {worst:.2f}  (accepted below 1, aim below 0.33)")
