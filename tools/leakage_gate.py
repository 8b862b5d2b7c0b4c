#!/usr/bin/env python3
"""Statistical leakage gate for CI: ordering flips and golden-CI drift.

Consumes the style x age leakage matrix that bench_fig7_total_leakage puts
in its run report's `statistics` block (directly via --json, or the newest
such report of a run ledger: JSONL, one report per line), and compares it
against the checked-in golden reference (LEAKAGE_golden.json). The gate
fails when:

  * config drift — the run's (seed, traces_per_class) differ from the
    golden's: the comparison would be meaningless, fix the invocation;
  * ordering flip — at any age, ranking the styles by total leakage gives
    a different order than the golden ranking (the paper's headline result,
    Fig. 7: LUT > OPT > TI > RSM-ROM > RSM > GLUT > ISW);
  * CI drift — a cell's 95% interval [total +- ci_halfwidth] no longer
    overlaps the golden interval for that cell (estimator or power-model
    drift that a digest would flag as a mystery; this localises it).

Cells where either side has no resolved CI fall back to an exact-total
comparison (the acquisition is deterministic in the seed, so at the pinned
config the totals must be bit-stable).

Usage:
  # gate (CI):
  tools/leakage_gate.py --golden LEAKAGE_golden.json ledger.jsonl

  # refresh the golden after an accepted change ([leakage-reset] commits):
  tools/leakage_gate.py --golden LEAKAGE_golden.json --update report.json
"""

import argparse
import json
import sys

GOLDEN_SCHEMA = "lpa-leakage-golden/1"
REPORT_SCHEMA = "lpa-run-report/4"
FIG7_BENCH = "bench_fig7_total_leakage"


def load_matrix_report(path):
    """Returns the newest fig7 run report with a statistics matrix."""
    with open(path) as f:
        text = f.read()
    candidates = []
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        # A single --json run report (possibly pretty-printed), or a
        # one-line ledger.
        candidates.append(whole)
    else:
        # JSONL ledger: one entry per line. A crash can tear at most
        # the trailing line (appends are fsync'd, obs/fsio.h): warn and
        # keep the intact prefix instead of failing the gate.
        for ln, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                report = json.loads(line)
            except json.JSONDecodeError:
                print(f"warning: {path}:{ln}: torn/undecodable ledger "
                      f"line skipped", file=sys.stderr)
                continue
            if isinstance(report, dict):
                candidates.append(report)
    for report in reversed(candidates):
        if report.get("schema") != REPORT_SCHEMA:
            print(f"warning: {path}: {report.get('schema')!r} report "
                  f"skipped (reads {REPORT_SCHEMA} only)", file=sys.stderr)
            continue
        if (report.get("name") == FIG7_BENCH
                and (report.get("statistics", {}) or {}).get("matrix")):
            return report
    sys.exit(f"{path}: no {FIG7_BENCH} report with a statistics.matrix found")


def matrix_cells(report):
    """{(style, months) -> cell} plus the pinned config."""
    stats = report.get("statistics", {})
    cells = {(c["style"], float(c["months"])): c for c in stats["matrix"]}
    config = {
        "seed": report.get("seed"),
        "traces_per_class": stats.get("traces_per_class"),
    }
    return cells, config


def ranking(cells, months):
    """Styles at `months`, most leaky first (ties broken by name: stable)."""
    at_age = [(c["total"], style) for (style, m), c in cells.items()
              if m == months]
    return [style for _, style in
            sorted(at_age, key=lambda t: (-t[0], t[1]))]


def make_golden(report):
    cells, config = matrix_cells(report)
    ages = sorted({m for _, m in cells})
    golden = {
        "schema": GOLDEN_SCHEMA,
        "generated_by": "tools/leakage_gate.py --update",
        "config": config,
        "ordering": {f"{m:g}": ranking(cells, m) for m in ages},
        "cells": {
            f"{style}@{m:g}": {
                "total": c["total"],
                **({"ci_halfwidth": c["ci_halfwidth"]}
                   if "ci_halfwidth" in c else {}),
            }
            for (style, m), c in sorted(cells.items())
        },
    }
    return golden


def run_gate(golden, report):
    cells, config = matrix_cells(report)
    failures = []

    def check(ok, label, detail):
        print(f"  [{'ok  ' if ok else 'FAIL'}] {label}: {detail}")
        if not ok:
            failures.append(f"{label}: {detail}")

    gconf = golden.get("config", {})
    drift = {k: (gconf.get(k), config.get(k)) for k in gconf
             if gconf.get(k) != config.get(k)}
    check(not drift, "pinned config",
          "matches golden" if not drift else f"drift: {drift}")
    if drift:
        return failures  # nothing else is comparable

    print("ordering (total leakage, most leaky first):")
    for m_key, want in sorted(golden.get("ordering", {}).items(),
                              key=lambda kv: float(kv[0])):
        got = ranking(cells, float(m_key))
        check(got == want, f"month {m_key}",
              " > ".join(got) if got == want
              else f"{' > '.join(got)} != golden {' > '.join(want)}")

    print("cell intervals (95% CI overlap with golden):")
    for key, gcell in sorted(golden.get("cells", {}).items()):
        style, m_key = key.rsplit("@", 1)
        cell = cells.get((style, float(m_key)))
        if cell is None:
            check(False, key, "missing from current matrix")
            continue
        if "ci_halfwidth" in gcell and "ci_halfwidth" in cell:
            glo = gcell["total"] - gcell["ci_halfwidth"]
            ghi = gcell["total"] + gcell["ci_halfwidth"]
            lo = cell["total"] - cell["ci_halfwidth"]
            hi = cell["total"] + cell["ci_halfwidth"]
            overlap = lo <= ghi and glo <= hi
            check(overlap, key,
                  f"[{lo:.4g}, {hi:.4g}] vs golden [{glo:.4g}, {ghi:.4g}]")
        else:
            same = cell["total"] == gcell["total"]
            check(same, key,
                  f"exact total {cell['total']:.17g}" if same else
                  f"total {cell['total']:.17g} != golden "
                  f"{gcell['total']:.17g} (no CI on one side)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input",
                    help="run-report JSON (--json) or run-ledger JSONL")
    ap.add_argument("--golden", required=True,
                    help="checked-in LEAKAGE_golden.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from the input instead of gating")
    args = ap.parse_args()

    report = load_matrix_report(args.input)

    if args.update:
        golden = make_golden(report)
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"golden updated: {args.golden} "
              f"({len(golden['cells'])} cells, "
              f"{len(golden['ordering'])} ages)")
        return 0

    with open(args.golden) as f:
        golden = json.load(f)
    if golden.get("schema") != GOLDEN_SCHEMA:
        sys.exit(f"{args.golden}: expected schema {GOLDEN_SCHEMA}")

    failures = run_gate(golden, report)
    if failures:
        print(f"\nFAILED: {len(failures)} leakage-gate violation(s):")
        for f_ in failures:
            print(f"  - {f_}")
        print("\nIf this change is an accepted estimator/power-model change, "
              "refresh the golden with a [leakage-reset] commit "
              "(see EXPERIMENTS.md).")
        return 1
    print("\nleakage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
