#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (the hedra library, the `admissiond` daemon and the
`hedra_perfbench` measuring program) from the checkout's sources into
`.bench_build/`, then runs one workload and passes its report through; the
last stdout line is the result JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # self-tests, then every workload
                                              # untraced and traced
    python3 perfbench/run.py --self-test      # the benchmark's self-tests

Run from the root of a checkout.  Exits non-zero on any build failure,
wrong output or failed shape check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["sweep", "admit", "exact_proof"]
BUILD_DIR = ".bench_build"


def build(root):
    """Configures (once) and builds the benchmark targets; returns bin dir."""
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    source_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "hedra_perfbench", "admissiond"],
        check=True, stdout=sys.stderr)
    return build_dir


def metric_specs(root, trace):
    """The metric list (name, unit) a run reports, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(bin_dir, root, args, workload, trace):
    """Runs one workload; returns (exit code, report lines, result or None).

    The result holds exactly BENCHMARK.json's end-to-end metrics (trace 0)
    or per-layer metrics (trace 1); a layer the workload bypasses reads 0.
    """
    cmd = [os.path.join(bin_dir, "hedra_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--admissiond", os.path.join(bin_dir, "hedra", "admissiond"),
           "--work-dir", os.path.join(root, BUILD_DIR, "run")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        return proc.returncode or 1, lines, None
    report = lines[:-1]
    report.append(f"== {workload}{' (traced)' if trace else ''}: "
                  f"{raw['attempted']} checked, {raw['failed']} failed")
    metrics = {}
    for name, unit in metric_specs(root, trace):
        value = raw["metrics"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        report.append(f"   {name:<46} {value!r:>24} {unit}")
    result = {"correct": raw["correct"], "attempted": max(raw["attempted"], 1),
              "failed": raw["failed"], "metrics": metrics}
    return proc.returncode, report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        bin_dir = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    if args.self_test or args.workload == "all":
        code = subprocess.run(
            [os.path.join(bin_dir, "hedra_perfbench"), "--self-test"],
            check=False).returncode
        if args.self_test or code != 0:
            return code

    if args.workload != "all":
        code, lines, result = run_one(bin_dir, root, args, args.workload,
                                      args.trace)
        print("\n".join(lines))
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload, untraced then traced; one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(bin_dir, root, args, workload, trace)
            print("\n".join(lines))
            if result is None or code != 0:
                status = 1
            if result is None:
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
