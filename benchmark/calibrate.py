#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Runs every workload N times through benchmark/run.sh, each run with
another seed, and prints per workload and metric the median, the first
and third quartile (statistics.quantiles(values, n=4)) and the spread
IQR / median. With --baseline PATH it also writes those numbers as JSON.
Run from the root of a checkout:

    python3 benchmark/calibrate.py --runs 10 --baseline benchmark/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--baseline", help="write medians and quartiles here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = str(args.first_seed + i)
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", seed,
                                    "--seconds", seconds, "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: run not correct")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)

    baseline = {}
    print(f"{'workload':10} {'metric':16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        baseline[w] = {}
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            baseline[w][name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": spread, "runs": len(vs)}
            flag = "" if spread < bounds[name] / 3 else "  > bound/3"
            print(f"{w:10} {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bounds[name]:6.2f}{flag}")
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
