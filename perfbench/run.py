#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark program in
perfbench/src) into .bench_build/perfbench; later runs only rebuild what
changed. The program repeats the workload for --seconds, checks its
outputs, and prints its result; this script also compares the seed-determined outputs with the
values pinned in perfbench/workloads.json when --seed is the default seed,
prints a readable summary, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program prints every seed-determined output in the "digests" object of
its JSON line; to re-pin on purpose, copy them into workloads.json by hand.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC = os.path.join(HERE, "workloads.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail("unknown workload %r (one of %s)"
             % (args.workload, ", ".join(spec["workloads"])))

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    workload = spec["workloads"][args.workload]
    if args.seed == spec["default_seed"]:
        for key, want in sorted(workload["pinned"].items()):
            got = result["digests"].get(key)
            attempted += 1
            if got != want:
                failed += 1
                failures.append("pinned %s: want %s, got %s" % (key, want, got))
    for f in failures:
        print("FAILED " + f, file=sys.stderr)

    metrics = result["metrics"]
    print("workload %s, seed %d, %d repetitions"
          % (args.workload, args.seed, result["repetitions"]))
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6g 1 (%d of %d operations)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
