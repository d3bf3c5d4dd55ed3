#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, each set over
seeds 1..runs, and per end-to-end metric:

- for each set, the median, the quartiles (statistics.quantiles, n=4),
  the interquartile spread and the largest deviation of any run from the
  median, both as a share of the median;
- the shift of the second set's median from the first's, as a share of
  the first;
- the repeat deviation: for each seed, how far its two runs (same
  inputs, one per set) differ, as a share of their mean; the median and
  the largest over the seeds. This is the host's part of the spread.

    python3 qbench/steady.py --runs 10 [--workload W ...] [--out FILE]

Run from the root of a source checkout. Runs go seed by seed, each
seed through every workload in turn, and each workload's two runs of a
seed back to back, one per set: the host's speed drifts by a fifth or
more over tens of minutes, and this order lets both sets see the same
drift, as runs of a parent and a change alternated with each other
would. With --out the table is also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "qbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: correct=%s failed=%d"
                 % (workload, seed, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "max_dev": max(abs(x - med) for x in xs) / med, "values": xs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    # values[w][metric][set] is the list of values over the seeds.
    values = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            for s in range(SETS):
                for name, v in run_once(w, seed, spec["run_seconds"]).items():
                    values[w].setdefault(name, [[] for _ in range(SETS)])[s].append(v)
                print("set %d %s seed %d done" % (s + 1, w, seed), file=sys.stderr)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "sets": SETS,
              "nproc": os.cpu_count(), "workloads": {}}
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            sets = values[w][m["name"]]
            per_set = [summary(xs) for xs in sets]
            repeat = [abs(a - b) / ((a + b) / 2) for a, b in zip(*sets)]
            row = {
                "bound": m["bound"],
                "sets": per_set,
                "median_shift": abs(per_set[1]["median"] - per_set[0]["median"])
                / per_set[0]["median"],
                "repeat_dev_median": statistics.median(repeat),
                "repeat_dev_max": max(repeat),
            }
            rows[m["name"]] = row
            print("%-13s %-15s med %10.4g %10.4g  spread %5.3f %5.3f  maxdev %5.3f %5.3f"
                  "  shift %5.3f  repeat %5.3f/%5.3f  bound %.2f"
                  % (w, m["name"], per_set[0]["median"], per_set[1]["median"],
                     per_set[0]["spread"], per_set[1]["spread"],
                     per_set[0]["max_dev"], per_set[1]["max_dev"], row["median_shift"],
                     row["repeat_dev_median"], row["repeat_dev_max"], m["bound"]))
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
