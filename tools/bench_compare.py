#!/usr/bin/env python3
"""Perf gate: checks one perfbench run against BENCH_baseline.json.

Reads the JSON result line that perfbench/run.py prints last, from a
`--trace 1` run, and fails when:

  * the run is not correct (`correct: false`): a pinned cell or slice
    digest, the three-engine bit-identity or event tallies, or the
    reproducibility of the repetitions failed — exit 1;
  * an engine ratio measured within the run falls below its floor in the
    baseline's perfbench.min_ratio — exit 1. A ratio is the reference
    engine's ns per trace over the batch or compiled engine's, per style
    (`reference_over_batch.GLUT`) or pooled as the geometric mean over
    the seven styles (`reference_over_batch.geomean`);
  * a floored ratio cannot be computed because the run lacks one of its
    metrics — exit 2, a configuration error (perfbench ran without
    --trace 1, or the floor names an unknown style or engine).

Two timings taken in one process can gate where absolute times cannot:
over ten fig7-matrix runs on a shared 4-vCPU host, each style's absolute
ns per trace spread 24-79 %, its ratios 15-56 % and the pooled ratios
11 %. The floors are edited by hand (EXPERIMENTS.md, "Running the perf
gate locally").

Usage:
  python3 perfbench/run.py --workload fig7-matrix --seed 0 --seconds 6 \\
      --trace 1 > perfbench.out
  python3 tools/bench_compare.py --baseline BENCH_baseline.json perfbench.out
"""

import argparse
import json
import math
import sys

BASELINE_SCHEMA = "lpa-bench-baseline/2"
STYLES = ("LUT", "OPT", "GLUT", "RSM", "RSM-ROM", "ISW", "TI")
ENGINES = ("batch", "compiled")
POOLED = "geomean"


def ratio_keys():
    """Every ratio the gate can floor: per engine, each style and pooled."""
    return [f"reference_over_{engine}.{style}"
            for engine in ENGINES for style in STYLES + (POOLED,)]


def ratios(metrics):
    """{ratio key: value} for every ratio computable from the metrics."""
    out = {}
    for engine in ENGINES:
        per_style = []
        for style in STYLES:
            ref = metrics.get(f"sim.reference_ns_per_trace.{style}")
            eng = metrics.get(f"sim.{engine}_ns_per_trace.{style}")
            if ref is None or eng is None:
                continue
            out[f"reference_over_{engine}.{style}"] = (ref["value"] /
                                                        eng["value"])
            per_style.append(out[f"reference_over_{engine}.{style}"])
        if len(per_style) == len(STYLES):
            out[f"reference_over_{engine}.{POOLED}"] = math.exp(
                sum(math.log(r) for r in per_style) / len(per_style))
    return out


def load_result(path):
    """The JSON object on the last non-empty line of perfbench's output."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.exit(f"{path}: last line is not perfbench/run.py's JSON result")
    return result


def run_gate(floors, result):
    """Prints one line per check; returns (failures, configuration errors)."""
    failures, errors = [], []
    ok = result.get("correct") is True
    detail = (f"{result.get('failed')} of {result.get('attempted')} "
              "operations failed")
    print(f"  [{'ok  ' if ok else 'FAIL'}] correct: {detail}")
    if not ok:
        failures.append(f"correct: {detail}")
    measured = ratios(result["metrics"])
    for key, floor in floors.items():
        if key not in measured:
            print(f"  [HARD] {key}: the run lacks a metric this floor needs")
            errors.append(key)
            continue
        ok = measured[key] >= floor
        detail = f"{measured[key]:.3f} (floor {floor:.3f})"
        print(f"  [{'ok  ' if ok else 'FAIL'}] {key}: {detail}")
        if not ok:
            failures.append(f"{key}: {detail}")
    return failures, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="perfbench/run.py output (its last line "
                                   "is the JSON result)")
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_baseline.json")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(f"{args.baseline}: expected schema {BASELINE_SCHEMA}")
    failures, errors = run_gate(baseline["perfbench"]["min_ratio"],
                                load_result(args.result))
    if errors:
        print(f"\nERROR: {len(errors)} floor(s) without a measurement: "
              f"{', '.join(errors)}. Run perfbench with --trace 1.")
        return 2
    if failures:
        print(f"\nFAILED: {len(failures)} check(s):")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    print("\nall perf gate checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
