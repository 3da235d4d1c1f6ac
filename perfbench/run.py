#!/usr/bin/env python3
# Copyright 2026 The rvar Authors.
"""Builds and runs the rvar benchmark (see BENCHMARK.json and plan.json).

    python3 perfbench/run.py --workload study|serve|ingest|durable|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (an optimized build of ../src plus the benchmark binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The binary's output is passed through; its last line
is one JSON object {"correct", "attempted", "failed", "metrics"} whose
metrics are checked against BENCHMARK.json. The exit code is 0 only when the
run finished, its correctness checks passed and its result has the promised
shape. `--workload all` runs every workload in turn and ends with one
combined line whose metric names are prefixed with the workload.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Returns the problems with one result object (empty when it is valid)."""
    problems = []
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append(f"result keys {sorted(result)} != {sorted(keys)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} is not a non-negative whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        got = sorted(metrics) if isinstance(metrics, dict) else metrics
        problems.append(f"metric names {got} != {sorted(units)}")
        return problems
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry is not {{value, unit}}")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if entry["unit"] != units[name]:
            problems.append(
                f"{name}: unit {entry['unit']!r} != {units[name]!r}")
    return problems


def build(build_dir):
    """Configures (once) and builds the binary; False when either fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "predictor.h")):
        print("run.py: the rvar sources (src/) are not here", file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", build_dir, "-j", jobs]
    targets = ["--target", "rvar_perfbench"]
    return subprocess.run(step + targets, stdout=sys.stderr).returncode == 0


def run_one(binary, out_dir, workload, args, spec):
    """Runs one workload; returns (ok, result or None)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return False, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print("\n".join(lines[-1:]))
        print(f"run.py: {workload} printed no result line", file=sys.stderr)
        return False, None
    problems = check_result(result, spec, args.trace == 1)
    for problem in problems:
        print(f"run.py: {workload}: {problem}", file=sys.stderr)
    ok = proc.returncode == 0 and not problems and result["correct"]
    return ok, result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("run.py: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "rvar_perfbench")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        ok, result = run_one(binary, out_dir, args.workload, args, spec)
        if result is not None:
            print(json.dumps(result))
        return 0 if ok else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    all_ok = True
    for workload in names:
        ok, result = run_one(binary, out_dir, workload, args, spec)
        all_ok &= ok
        if result is None:
            combined["correct"] = False
            continue
        print(json.dumps(result))
        combined["correct"] &= result["correct"] is True
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
