#!/usr/bin/env python3
"""Planner benchmark: builds the tfpe library and the workload runner from
source, runs one workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload plan|sweep|codesign|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench (its
output to stderr); the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: request_cost (median cost of one
planner request on a single worker thread, in millions of a fixed throughput
probe's adds that fit in the same time; see runner.cpp) and setup_s (median
over SETUP_SPAWNS fresh runner processes, half before and half after the
timed run, of the wall time to start, build the inputs and answer one
request cold). --trace 1 reports the per-layer
metrics instead: the engine's stage split, in the same unit, and work
counters.
Metric names and units come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
WORKLOADS = ("plan", "sweep", "codesign", "serve")
SETUP_SPAWNS = 12


def build():
    """Configure once, then (re)build the runner; a no-op when up to date."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: tfpe sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")


def declared_units(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def runner(*args, timeout):
    return subprocess.run([str(RUNNER), *args], capture_output=True,
                          text=True, timeout=timeout)


def setup_seconds(workload, seed, spawns):
    """Wall times of `spawns` fresh --setup-only runner processes; None if
    one fails."""
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = runner("--workload", workload, "--seed", str(seed),
                      "--setup-only", timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return None
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units = declared_units(args.trace)
    build()
    # Half the set-up spawns run before the timed run and half after it, so
    # that one run's set-up time samples the host's load at two moments.
    setup = []
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, SETUP_SPAWNS // 2)
        if setup is None:
            sys.exit("perfbench: set-up run failed")
    proc = runner("--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  timeout=args.seconds + 90)
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        sys.exit(f"perfbench: runner exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = result["metrics"]
    if not args.trace:
        after = setup_seconds(args.workload, args.seed, SETUP_SPAWNS // 2)
        if after is None:
            sys.exit("perfbench: set-up run failed")
        values["setup_s"] = statistics.median(setup + after)
    if set(values) != set(units):
        sys.exit(f"perfbench: runner reported {sorted(values)}, "
                 f"BENCHMARK.json declares {sorted(units)}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
