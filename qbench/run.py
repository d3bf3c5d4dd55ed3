#!/usr/bin/env python3
"""Build and run the qbench benchmark from the root of a source checkout.

    python3 qbench/run.py --workload qir-batch --seed 1 --seconds 20 --trace 0

Builds qbench/qbench.exe with dune into .bench_build (no shared dune
cache, so nothing is written outside the checkout), runs it with the
given arguments, and checks its last output line against BENCHMARK.json,
the one table of metric names and units: the keys
correct/attempted/failed/metrics, and exactly the end-to-end metrics
(--trace 0), or per-layer metrics only (--trace 1; a layer the workload
does not exercise reports 0). The program prints name/value pairs; the
result line printed last attaches each metric's unit. Any failure exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "qbench", "qbench.exe")


def fail(message, code):
    print("qbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", "./qbench/qbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 2)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 2)


def metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    build()
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out", 4)
    if done.returncode != 0:
        fail("run exited with %d" % done.returncode, 4)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line", 5)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from the contract", 5)
    units = metric_units(trace)
    got = result["metrics"]
    unknown = sorted(set(got) - set(units))
    missing = sorted(set(units) - set(got))
    if unknown or (missing and not trace):
        fail("metrics differ from BENCHMARK.json: unknown %s, missing %s"
             % (unknown, missing), 5)
    result["metrics"] = {name: {"value": got.get(name, 0.0), "unit": unit}
                         for name, unit in units.items()}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
