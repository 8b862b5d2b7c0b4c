#!/usr/bin/env python3
"""Tests for tools/lpa_watch.py's Prometheus exposition parser/validator and
renderers — the contract the CI smoke job gates /metrics on."""

import unittest

import lpa_watch

GOLDEN = """\
# TYPE lpa_acquire_traces_total counter
lpa_acquire_traces_total 1024
# TYPE lpa_jobs_depth gauge
lpa_jobs_depth 2.5
"""


class ParsePrometheus(unittest.TestCase):
    def test_golden_document_parses(self):
        samples, types = lpa_watch.parse_prometheus(GOLDEN)
        self.assertEqual(samples["lpa_acquire_traces_total"], 1024)
        self.assertEqual(samples["lpa_jobs_depth"], 2.5)
        self.assertEqual(types["lpa_acquire_traces_total"], "counter")
        self.assertEqual(types["lpa_jobs_depth"], "gauge")

    def test_blank_lines_and_comments_skipped(self):
        samples, types = lpa_watch.parse_prometheus(
            "\n# HELP x something\n# free comment\nx 1\n# TYPE x counter\n")
        self.assertEqual(samples, {"x": 1.0})
        self.assertEqual(types, {"x": "counter"})

    def test_bad_value_raises(self):
        with self.assertRaises(ValueError):
            lpa_watch.parse_prometheus("lpa_x not_a_number\n")

    def test_malformed_type_comment_raises(self):
        with self.assertRaises(ValueError):
            lpa_watch.parse_prometheus("# TYPE lpa_x\n")


class ValidateExposition(unittest.TestCase):
    def test_golden_is_clean(self):
        self.assertEqual(lpa_watch.validate_exposition(GOLDEN), [])

    def test_empty_document_flagged(self):
        self.assertTrue(lpa_watch.validate_exposition(""))

    def test_missing_type_declaration_flagged(self):
        problems = lpa_watch.validate_exposition("lpa_orphan 3\n")
        self.assertTrue(any("no TYPE" in p for p in problems))

    def test_invalid_sample_name_flagged(self):
        doc = "# TYPE 9bad counter\n9bad 1\n"
        problems = lpa_watch.validate_exposition(doc)
        self.assertTrue(any("invalid" in p for p in problems))

    def test_unknown_type_flagged(self):
        # The registry renders counters and gauges only.
        for kind in ("summary", "histogram"):
            doc = f"# TYPE lpa_x {kind}\nlpa_x 1\n"
            problems = lpa_watch.validate_exposition(doc)
            self.assertTrue(any("unknown TYPE" in p for p in problems), kind)


class Renderers(unittest.TestCase):
    def test_render_status_v2_fields(self):
        hb = {"schema": "lpa-heartbeat/2", "name": "run", "pid": 7,
              "status": "truncated", "phase": "acquire", "done": 512,
              "total": 1024, "rate_per_sec": 100.0, "eta_sec": 5.0,
              "elapsed_sec": 5.1, "stop_reason": "deadline",
              "lineage_id": "abc123"}
        text = "\n".join(lpa_watch.render_status(hb))
        self.assertIn("truncated", text)
        self.assertIn("deadline", text)
        self.assertIn("abc123", text)
        self.assertIn("512/1024 (50.0%)", text)

    def test_render_status_v1_warns(self):
        # /2 is the only heartbeat version the runs write: a retired /1
        # document still renders, under a warning.
        hb = {"schema": "lpa-heartbeat/1", "name": "run", "pid": 7,
              "status": "running", "phase": "acquire", "done": 1,
              "total": 4, "rate_per_sec": 1.0, "eta_sec": 3.0,
              "elapsed_sec": 1.0}
        text = "\n".join(lpa_watch.render_status(hb))
        self.assertIn("unrecognized heartbeat schema 'lpa-heartbeat/1'", text)
        self.assertIn("running", text)

    def test_render_status_unknown_schema_warns(self):
        text = "\n".join(lpa_watch.render_status({"schema": "bogus/9"}))
        self.assertIn("unrecognized", text)

    def test_render_events_skips_junk_lines(self):
        jsonl = ('{"schema":"lpa-event-journal/1","seq":1,"t_mono_sec":0.5,'
                 '"level":"warn","kind":"group-retry","fields":{"group":"3"}}\n'
                 "not json\n"
                 '{"schema":"other/1","kind":"x","fields":{}}\n')
        lines = lpa_watch.render_events(jsonl)
        self.assertEqual(len(lines), 1)
        self.assertIn("group-retry", lines[0])
        self.assertIn("group=3", lines[0])

    def test_progress_bar_and_eta(self):
        self.assertEqual(lpa_watch.progress_bar(2, 4, width=4), "[##--]")
        self.assertEqual(lpa_watch.fmt_eta(None), "--:--")
        self.assertEqual(lpa_watch.fmt_eta(-1), "--:--")
        self.assertEqual(lpa_watch.fmt_eta(75), "01:15")


if __name__ == "__main__":
    unittest.main()
