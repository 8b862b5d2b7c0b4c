#!/usr/bin/env python3
"""Unit tests for the ledger readers (tools/lpa_dashboard.py and
tools/leakage_gate.py).

Stdlib-only; registered as a tier-1 ctest when a Python interpreter is
available (tests/CMakeLists.txt). Focus: the crash-safety contract of the
run ledger — appends are fsync'd (obs/fsio.h), so a crash can tear at most
the trailing JSONL line, and both readers must keep the intact prefix with
a warning instead of failing or silently dropping good runs. Plus: both
readers read lpa-run-report/4 and skip every other version with a warning.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import leakage_gate  # noqa: E402
import lpa_dashboard  # noqa: E402


def fig7_report(schema="lpa-run-report/4"):
    return {
        "schema": schema,
        "name": "bench_fig7_total_leakage",
        "git": "test",
        "timestamp_unix": 1700000000,
        "seed": 1,
        "params": {},
        "determinism_digest": "abc",
        "statistics": {
            "traces_per_class": 16,
            "matrix": [
                {"style": "ISW", "months": 0.0, "total": 10.0},
                {"style": "GLUT", "months": 0.0, "total": 20.0},
            ],
        },
        "resilience": {
            "truncated": False,
            "resumed": True,
            "stop_reason": "completed",
        },
        "profile": {
            "schema": "lpa-profile/1",
            "runs": 32,
            "lane_occupancy": {"waves": 100, "mean_popped": 6.5,
                               "mean_committed": 0.7},
        },
    }


def ledger_line(report):
    """A ledger line is the compact run report itself."""
    return json.dumps(report)


class TornLedgerTail(unittest.TestCase):
    """A half-written trailing line is skipped with a warning; the intact
    prefix survives."""

    def write_torn(self, d):
        path = os.path.join(d, "ledger.jsonl")
        good = ledger_line(fig7_report())
        with open(path, "w") as f:
            f.write(good + "\n")
            f.write(good[: len(good) // 2])  # crash mid-append
        return path

    def test_dashboard_keeps_prefix_and_warns(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.write_torn(d)
            with redirect_stderr(io.StringIO()) as err:
                reports = lpa_dashboard.load_ledger([path])
        self.assertEqual(len(reports), 1)
        self.assertEqual(reports[0]["name"], "bench_fig7_total_leakage")
        self.assertIn("warning", err.getvalue())

    def test_gate_keeps_prefix_and_warns(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.write_torn(d)
            with redirect_stderr(io.StringIO()) as err:
                report = leakage_gate.load_matrix_report(path)
        self.assertEqual(report["name"], "bench_fig7_total_leakage")
        self.assertIn("torn", err.getvalue())

    def test_gate_fails_loudly_when_no_intact_line_remains(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.jsonl")
            with open(path, "w") as f:
                f.write(ledger_line(fig7_report())[:40])  # only a torn line
            with redirect_stderr(io.StringIO()):
                with self.assertRaises(SystemExit):
                    leakage_gate.load_matrix_report(path)


class SchemaVersions(unittest.TestCase):
    def test_both_readers_read_v4_and_skip_retired_versions(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.jsonl")
            with open(path, "w") as f:
                f.write(ledger_line(fig7_report()) + "\n")
            reports = lpa_dashboard.load_ledger([path])
            gate_report = leakage_gate.load_matrix_report(path)
        self.assertEqual(len(reports), 1)
        self.assertEqual(gate_report["schema"], "lpa-run-report/4")

        for schema in ("lpa-run-report/1", "lpa-run-report/2",
                       "lpa-run-report/3"):
            with tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "ledger.jsonl")
                with open(path, "w") as f:
                    f.write(ledger_line(fig7_report(schema)) + "\n")
                with redirect_stderr(io.StringIO()) as dash_err:
                    reports = lpa_dashboard.load_ledger([path])
                with redirect_stderr(io.StringIO()) as gate_err:
                    with self.assertRaises(SystemExit):
                        leakage_gate.load_matrix_report(path)
            self.assertEqual(reports, [], schema)
            self.assertIn("warning", dash_err.getvalue(), schema)
            self.assertIn(schema, dash_err.getvalue())
            self.assertIn("warning", gate_err.getvalue(), schema)
            self.assertIn(schema, gate_err.getvalue())

    def test_unknown_schema_is_skipped_with_warning(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.jsonl")
            with open(path, "w") as f:
                f.write(ledger_line(fig7_report("lpa-run-report/99")) + "\n")
            with redirect_stderr(io.StringIO()) as err:
                reports = lpa_dashboard.load_ledger([path])
        self.assertEqual(reports, [])
        self.assertIn("unknown report schema", err.getvalue())


if __name__ == "__main__":
    unittest.main()
