#!/usr/bin/env python3
"""Benchmark regression gate for the CI perf job (and local use).

Compares the current benchmark outputs against the checked-in baseline
(BENCH_baseline.json) and exits non-zero on a regression. Two kinds of
inputs are understood, auto-detected per file:

  * lpa run reports     ("schema": "lpa-run-report/4", the only version
    read) — written by the bench binaries with --json (e.g.
    bench_acquire_scaling).
  * google-benchmark    ({"benchmarks": [...]}) — written by bench_perf
    with --benchmark_out=<file> --benchmark_out_format=json.

Three classes of checks, strongest first:

  1. Machine-independent invariants — always enforced:
       - determinism digests must match the baseline EXACTLY (bit-identity
         of the acquired traces; any drift is a correctness bug, not a
         perf regression);
       - boolean contract params (obs_bit_identical, engine_bit_identical)
         must be true;
       - pinned config params (style, traces_per_class) must equal the
         baseline, so a digest is never compared across configs.
  2. Ratio floors — always enforced: params listed under "min_ratio"
     (e.g. compiled_speedup, batch_speedup) must meet the recorded
     floor. Ratios of two timings on the same machine are portable across
     runners. A floor whose key the candidate report never measured is a
     configuration error (stale bench binary / wrong report), reported by
     name with exit status 2 — distinct from exit 1 (a real regression).
  3. Absolute throughput — enforced unless --local: traces/sec params and
     google-benchmark real_time may regress at most --tolerance percent
     (default from the baseline, 15%). The reference is --previous (a
     per-runner cached report written by --out, preferred: same-machine
     numbers) or else the baseline. Improvements always pass.

Usage:
  # gate (CI):
  tools/bench_compare.py --baseline BENCH_baseline.json \
      [--previous prev.json] [--out current.json] report.json gbench.json

  # local sanity check (invariants + ratios only, throughput informational):
  tools/bench_compare.py --baseline BENCH_baseline.json --local report.json

  # refresh the baseline ([bench-reset] commits / first bring-up):
  tools/bench_compare.py --baseline BENCH_baseline.json --update \
      report.json gbench.json
"""

import argparse
import json
import sys

BASELINE_SCHEMA = "lpa-bench-baseline/1"
RUN_REPORT_SCHEMA = "lpa-run-report/4"

# Run-report params pinned (must equal the baseline before digests are
# comparable), contract booleans, ratio params, and throughput params.
PINNED_PARAMS = ("style", "traces_per_class")
BOOL_PARAMS = ("obs_bit_identical", "engine_bit_identical")
RATIO_PARAMS = ("compiled_speedup", "batch_speedup")
RATIO_FLOOR_FRACTION = 0.75  # floor recorded by --update: 75% of measured
THROUGHPUT_PREFIX = "traces_per_sec"


def load_inputs(paths):
    """Splits input files into ({name: run_report}, {bm_name: real_time})."""
    reports, gbench = {}, {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        if data.get("schema") == RUN_REPORT_SCHEMA:
            name = data.get("name")
            if not name:
                sys.exit(f"{path}: run report has no 'name' field; "
                         "regenerate it with the current bench binary")
            reports[name] = data
        elif "benchmarks" in data:
            for bm in data["benchmarks"]:
                if bm.get("run_type", "iteration") == "iteration":
                    gbench[bm["name"]] = float(bm["real_time"])
        else:
            sys.exit(f"{path}: neither a {RUN_REPORT_SCHEMA} run report nor "
                     "google-benchmark JSON")
    return reports, gbench


def make_baseline(reports, gbench, tolerance):
    base = {
        "schema": BASELINE_SCHEMA,
        "generated_by": "tools/bench_compare.py --update",
        "tolerance_pct": tolerance,
        "reports": {},
        "gbench": {name: {"real_time_ns": t} for name, t in gbench.items()},
    }
    for name, rep in reports.items():
        params = rep.get("params", {})
        entry = {
            "determinism_digest": rep.get("determinism_digest", ""),
            "pinned": {k: params[k] for k in PINNED_PARAMS if k in params},
            "require_true": [k for k in BOOL_PARAMS if params.get(k) is True],
            "min_ratio": {
                k: round(float(params[k]) * RATIO_FLOOR_FRACTION, 2)
                for k in RATIO_PARAMS
                if k in params
            },
            "throughput": {
                k: v
                for k, v in params.items()
                if k.startswith(THROUGHPUT_PREFIX)
            },
        }
        base["reports"][name] = entry
    return base


class Gate:
    def __init__(self):
        self.failures = []
        self.hard_failures = []  # configuration errors, not regressions

    def check(self, ok, label, detail):
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def hard(self, label, detail):
        print(f"  [HARD] {label}: {detail}")
        self.hard_failures.append(f"{label}: {detail}")

    def info(self, label, detail):
        print(f"  [info] {label}: {detail}")


def compare_throughput(gate, label, current, reference, tolerance, local):
    """Fails when current is > tolerance% slower than reference (times/sec:
    bigger is better — callers pass slower_is_less=True semantics)."""
    if reference is None or reference <= 0:
        gate.info(label, f"{current:.4g} (no reference; recorded only)")
        return
    delta_pct = (current - reference) / reference * 100.0
    detail = f"{current:.4g} vs {reference:.4g} ({delta_pct:+.1f}%)"
    if local:
        gate.info(label, detail + " [--local: informational]")
    else:
        gate.check(delta_pct >= -tolerance, label, detail)


def compare_gbench_time(gate, label, current, reference, tolerance, local):
    """google-benchmark real_time: smaller is better."""
    if reference is None or reference <= 0:
        gate.info(label, f"{current:.4g} ns (no reference; recorded only)")
        return
    delta_pct = (current - reference) / reference * 100.0
    detail = f"{current:.4g} ns vs {reference:.4g} ns ({delta_pct:+.1f}%)"
    if local:
        gate.info(label, detail + " [--local: informational]")
    else:
        gate.check(delta_pct <= tolerance, label, detail)


def run_gate(baseline, reports, gbench, previous, tolerance, local):
    gate = Gate()
    prev_reports = (previous or {}).get("reports", {})
    prev_gbench = (previous or {}).get("gbench", {})

    for name, entry in baseline.get("reports", {}).items():
        print(f"{name}:")
        rep = reports.get(name)
        if rep is None:
            if local:
                gate.info("presence", "no current report supplied; skipped")
            else:
                gate.check(False, "presence", "no current report supplied")
            continue
        params = rep.get("params", {})

        drift = {
            k: (v, params.get(k))
            for k, v in entry.get("pinned", {}).items()
            if params.get(k) != v
        }
        gate.check(not drift, "pinned config",
                   "matches baseline" if not drift else f"drift: {drift}")
        if drift:
            continue  # digest/throughput not comparable across configs

        want = entry.get("determinism_digest", "")
        got = rep.get("determinism_digest", "")
        gate.check(got == want, "determinism digest",
                   got if got == want else f"{got} != baseline {want}")

        for key in entry.get("require_true", []):
            gate.check(params.get(key) is True, key, str(params.get(key)))

        floors = entry.get("min_ratio", {})
        for key, floor in floors.items():
            if key not in params:
                # A gated ratio the current report never measured used to
                # degrade to 0.0 here and print as a "regression" — but a
                # stale bench binary (or the wrong report file) is a
                # configuration error, not a perf result. Name the key and
                # exit 2 so CI distinguishes it from a real regression.
                gate.hard(key, "baseline records a min_ratio floor but the "
                               "current report's params do not contain this "
                               "key; rebuild the bench binary or pass the "
                               "right report")
                continue
            cur = float(params[key])
            gate.check(cur >= floor, key, f"{cur:.2f} (floor {floor:.2f})")
        # A ratio the current report measures but the baseline has no floor
        # for would silently pass forever — a stale baseline must be an
        # explicit failure, not a KeyError or a no-op.
        for key in RATIO_PARAMS:
            if key in params and key not in floors:
                gate.check(False, key,
                           "measured by the current report but the baseline "
                           "records no min_ratio floor for it; refresh the "
                           "baseline with a [bench-reset] commit "
                           "(see EXPERIMENTS.md)")

        prev_tp = prev_reports.get(name, {}).get("throughput", {})
        for key, base_val in entry.get("throughput", {}).items():
            if key not in params:
                gate.check(False, key, "missing from current report")
                continue
            ref = prev_tp.get(key, base_val)
            src = "previous" if key in prev_tp else "baseline"
            compare_throughput(gate, f"{key} [{src}]", float(params[key]),
                               ref, tolerance, local)

    base_gb = baseline.get("gbench", {})
    if base_gb and (gbench or not local):
        print("bench_perf (google-benchmark):")
        for name, entry in base_gb.items():
            if name not in gbench:
                gate.check(False, name, "missing from current run")
                continue
            ref = prev_gbench.get(name, {}).get("real_time_ns",
                                                entry.get("real_time_ns"))
            src = "previous" if name in prev_gbench else "baseline"
            compare_gbench_time(gate, f"{name} [{src}]", gbench[name], ref,
                                tolerance, local)

    return gate


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="+",
                    help="current run-report / google-benchmark JSON files")
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_baseline.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current inputs "
                         "([bench-reset] / first bring-up) instead of gating")
    ap.add_argument("--local", action="store_true",
                    help="invariants and ratio floors only; absolute "
                         "throughput is informational (different machine)")
    ap.add_argument("--previous",
                    help="per-runner cached report written by --out; "
                         "preferred throughput reference")
    ap.add_argument("--out",
                    help="write the merged current numbers here (cache it "
                         "and pass as --previous next run)")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="max allowed regression in percent "
                         "(default: baseline's tolerance_pct, else 15)")
    args = ap.parse_args()

    reports, gbench = load_inputs(args.inputs)
    current = make_baseline(reports, gbench, 15.0)

    if args.update:
        if args.tolerance is not None:
            current["tolerance_pct"] = args.tolerance
        with open(args.baseline, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(f"{args.baseline}: expected schema {BASELINE_SCHEMA}")
    tolerance = (args.tolerance if args.tolerance is not None
                 else float(baseline.get("tolerance_pct", 15.0)))

    previous = None
    if args.previous:
        try:
            with open(args.previous) as f:
                previous = json.load(f)
        except OSError:
            print(f"note: previous report {args.previous} not readable; "
                  "falling back to baseline references")

    gate = run_gate(baseline, reports, gbench, previous, tolerance, local=args.local)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")

    if gate.hard_failures:
        print(f"\nERROR: {len(gate.hard_failures)} configuration error(s):")
        for f_ in gate.hard_failures:
            print(f"  - {f_}")
        print("\nThese are not perf regressions: the candidate report is "
              "missing params the baseline gates. Fix the invocation; a "
              "[bench-reset] will not help.")
        return 2
    if gate.failures:
        print(f"\nFAILED: {len(gate.failures)} regression(s):")
        for f_ in gate.failures:
            print(f"  - {f_}")
        print("\nIf this change is an accepted trade-off, refresh the "
              "baseline with a [bench-reset] commit (see EXPERIMENTS.md).")
        return 1
    print("\nall benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
