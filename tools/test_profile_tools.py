#!/usr/bin/env python3
"""Unit tests for the profile renderer (tools/lpa_profile.py).

Stdlib-only; registered as a tier-1 ctest when a Python interpreter is
available (tests/CMakeLists.txt). Focus: the validate_profile() contract
the CI obs-smoke job gates on (a well-formed lpa-run-report/4
"profile" block), and that render() produces a self-contained HTML page
with every section present from a synthetic report — no C++ build needed.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lpa_profile  # noqa: E402


def synthetic_report():
    """A minimal but fully-populated lpa-run-report/4 with a profile block,
    shaped exactly like bench_acquire_scaling --profile output."""
    return {
        "schema": "lpa-run-report/4",
        "name": "bench_synthetic",
        "git": "test",
        "timestamp_unix": 1700000000,
        "seed": 42,
        "params": {"profile_overhead_pct": 2.5},
        "phases": [
            {"name": "acquire t=1", "wall_ms": 25.0, "cpu_ms": 24.0},
            {"name": "ab.profiler", "wall_ms": 75.0, "cpu_ms": 74.0},
        ],
        "determinism_digest": "e03e076702875522",
        "resilience": {
            "truncated": False, "resumed": False, "stop_reason": "completed",
        },
        "profile": {
            "schema": "lpa-profile/1",
            "runs": 40,
            "profiled_runs": 8,
            "nets": {
                "total_nets": 1690,
                "active_nets": 1675,
                "top_k": 2,
                "rows": [
                    {"net": 649, "label": "OR", "scheduled": 21145,
                     "committed": 17025, "cancelled": 4120, "filtered": 0,
                     "pulses": 17025, "wall_time_ns": 1500000},
                    {"net": 12, "label": "XOR", "scheduled": 9000,
                     "committed": 100, "cancelled": 8900, "filtered": 5,
                     "pulses": 100, "wall_time_ns": 0},
                ],
            },
            "totals": {"scheduled": 30145, "committed": 17125,
                       "cancelled": 13020, "filtered": 5, "pulses": 17125,
                       "wall_time_ns": 1500000},
            "lane_occupancy": {
                "waves": 902495,
                "run_sample_stride": 5,
                "mean_popped": 6.87,
                "mean_committed": 0.69,
                "popped_hist": [{"lanes": 1, "count": 464190},
                                {"lanes": 8, "count": 3280}],
                "committed_hist": [{"lanes": 0, "count": 800000},
                                   {"lanes": 2, "count": 10000}],
            },
            "queue_depth_timeline": {
                "window_ps": 24.58,
                "windows": [
                    {"window": 0, "t0_ps": 0.0, "pops": 65000,
                     "mean_depth": 344.1, "max_depth": 588},
                    {"window": 2, "t0_ps": 49.15, "pops": 30810,
                     "mean_depth": 935.8, "max_depth": 1356},
                ],
            },
            "hw_counters": [
                {"phase": "run", "source": "rusage",
                 "wall_ns": 440762220, "utime_ns": 383391000,
                 "minor_faults": 17079},
            ],
            "arenas": {"batch": 3072145},
        },
    }


class ValidateProfile(unittest.TestCase):
    def test_synthetic_report_is_valid(self):
        self.assertEqual(lpa_profile.validate_profile(synthetic_report()), [])

    def test_missing_profile_block_is_reported(self):
        report = synthetic_report()
        del report["profile"]
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("profile" in e and "--profile" in e
                            for e in errors), errors)

    def test_wrong_report_schema_is_reported(self):
        report = synthetic_report()
        report["schema"] = "lpa-run-report/3"
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("lpa-run-report/4" in e for e in errors), errors)

    def test_wrong_profile_schema_is_reported(self):
        report = synthetic_report()
        report["profile"]["schema"] = "lpa-profile/0"
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("lpa-profile/1" in e for e in errors), errors)

    def test_malformed_net_row_is_reported(self):
        report = synthetic_report()
        del report["profile"]["nets"]["rows"][0]["scheduled"]
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("rows[0].scheduled" in e for e in errors), errors)

    def test_negative_occupancy_mean_is_reported(self):
        report = synthetic_report()
        report["profile"]["lane_occupancy"]["mean_popped"] = -1.0
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("mean_popped" in e for e in errors), errors)

    def test_malformed_histogram_bin_is_reported(self):
        report = synthetic_report()
        report["profile"]["lane_occupancy"]["popped_hist"][0] = {"lanes": 1}
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("popped_hist[0]" in e for e in errors), errors)

    def test_missing_hw_counters_is_reported(self):
        report = synthetic_report()
        del report["profile"]["hw_counters"]
        errors = lpa_profile.validate_profile(report)
        self.assertTrue(any("hw_counters" in e for e in errors), errors)


class RenderHtml(unittest.TestCase):
    def test_every_section_renders(self):
        page = lpa_profile.render(synthetic_report())
        for token in ("Cost-attribution profile", "bench_synthetic",
                      "Top-2 nets", "Lane occupancy", "Queue-depth timeline",
                      "Wall time", "Hardware counters", "Arenas",
                      "lpa-profile/1", "rusage", "<svg", "OR", "XOR"):
            self.assertIn(token, page)

    def test_sample_stride_is_surfaced(self):
        page = lpa_profile.render(synthetic_report())
        self.assertIn("run sample stride 5", page)
        self.assertIn("counts cover 8 of 40 runs", page)

    def test_stride_one_reads_as_census(self):
        report = synthetic_report()
        report["profile"]["lane_occupancy"]["run_sample_stride"] = 1
        page = lpa_profile.render(report)
        self.assertNotIn("run sample stride", page)

    def test_empty_rows_render_placeholder(self):
        report = synthetic_report()
        report["profile"]["nets"]["rows"] = []
        page = lpa_profile.render(report)
        self.assertIn("No active nets recorded", page)

    def test_html_escapes_labels(self):
        report = synthetic_report()
        report["profile"]["nets"]["rows"][0]["label"] = "<script>"
        page = lpa_profile.render(report)
        self.assertNotIn("<script>", page)
        self.assertIn("&lt;script&gt;", page)


class CollapsedStacks(unittest.TestCase):
    def test_stacks_cover_phases_and_nets(self):
        stacks = lpa_profile.flame_stacks(synthetic_report())
        joined = [s for s, _ in stacks]
        self.assertIn("bench_synthetic;phase:acquire t=1", joined)
        self.assertIn("bench_synthetic;sim;OR:net649", joined)
        # Zero-wall-time nets are omitted.
        self.assertNotIn("bench_synthetic;sim;XOR:net12", joined)
        values = dict(stacks)
        self.assertEqual(values["bench_synthetic;phase:acquire t=1"],
                         25_000_000)


if __name__ == "__main__":
    unittest.main()
