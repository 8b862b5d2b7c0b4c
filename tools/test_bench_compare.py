#!/usr/bin/env python3
"""Unit tests for the benchmark regression gate (tools/bench_compare.py).

Stdlib-only (unittest + tempfile); registered as a tier-1 ctest when a
Python interpreter is available (tests/CMakeLists.txt). Focus: the gate's
failure modes must be *clear failures*, never silent passes or stack
traces — in particular a baseline that predates a newly measured ratio
param (e.g. batch_speedup before a [bench-reset] refresh) and a run report
missing its name field.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def report(params, name="bench_acquire_scaling", digest="abc123"):
    return {
        "schema": "lpa-run-report/4",
        "name": name,
        "determinism_digest": digest,
        "params": params,
    }


FULL_PARAMS = {
    "style": "GLUT",
    "traces_per_class": 16,
    "obs_bit_identical": True,
    "engine_bit_identical": True,
    "compiled_speedup": 2.0,
    "batch_speedup": 10.0,
    "traces_per_sec_reference": 15000.0,
    "traces_per_sec_compiled": 30000.0,
    "traces_per_sec_batch": 150000.0,
}


def baseline_for(params):
    """A baseline exactly as --update would record for these params."""
    reports = {report(params)["name"]: report(params)}
    return bench_compare.make_baseline(reports, {}, 15.0)


def run(baseline, params, digest="abc123", local=True):
    reports = {"bench_acquire_scaling": report(params, digest=digest)}
    with redirect_stdout(io.StringIO()) as out:
        gate = bench_compare.run_gate(baseline, reports, {}, None, 15.0,
                                      local)
    return gate, out.getvalue()


class RatioFloors(unittest.TestCase):
    def test_complete_baseline_passes(self):
        gate, _ = run(baseline_for(FULL_PARAMS), FULL_PARAMS)
        self.assertEqual(gate.failures, [])

    def test_update_records_a_floor_per_ratio_param(self):
        base = baseline_for(FULL_PARAMS)
        floors = base["reports"]["bench_acquire_scaling"]["min_ratio"]
        self.assertEqual(floors["compiled_speedup"], 1.5)  # 0.75 * 2.0
        self.assertEqual(floors["batch_speedup"], 7.5)  # 0.75 * 10.0

    def test_ratio_below_floor_fails(self):
        slow = dict(FULL_PARAMS, batch_speedup=5.0)
        gate, _ = run(baseline_for(FULL_PARAMS), slow)
        self.assertTrue(any("batch_speedup" in f for f in gate.failures))

    def test_baseline_missing_ratio_floor_is_a_clear_failure(self):
        # A pre-batch-engine baseline gating a post-batch-engine report:
        # batch_speedup is measured but has no floor. That must fail with
        # a message naming the param and the [bench-reset] remedy — not
        # raise, and not silently pass.
        old_params = {k: v for k, v in FULL_PARAMS.items()
                      if k not in ("batch_speedup", "traces_per_sec_batch")}
        stale = baseline_for(old_params)
        gate, _ = run(stale, FULL_PARAMS)
        msgs = [f for f in gate.failures if "batch_speedup" in f]
        self.assertEqual(len(msgs), 1)
        self.assertIn("no min_ratio floor", msgs[0])
        self.assertIn("bench-reset", msgs[0])

    def test_unmeasured_ratio_param_is_not_required(self):
        # The converse: a report that never measures batch_speedup (e.g. a
        # different bench binary) must not be forced to.
        params = {k: v for k, v in FULL_PARAMS.items()
                  if k not in ("batch_speedup", "traces_per_sec_batch")}
        gate, _ = run(baseline_for(params), params)
        self.assertEqual(gate.failures, [])

    def test_floored_key_missing_from_report_is_a_hard_error(self):
        # The baseline gates batch_speedup but the candidate report never
        # measured it (stale bench binary). That used to degrade to
        # float(params.get(key, 0.0)) and print as a bogus "0.00 (floor
        # 7.50)" regression. It must instead be a hard configuration error
        # naming the key — exit status 2, not 1 — and the bogus ratio
        # check must not run at all.
        stale = {k: v for k, v in FULL_PARAMS.items()
                 if k not in ("batch_speedup", "traces_per_sec_batch")}
        gate, out = run(baseline_for(FULL_PARAMS), stale)
        msgs = [f for f in gate.hard_failures if "batch_speedup" in f]
        self.assertEqual(len(msgs), 1)
        self.assertIn("do not contain this key", msgs[0])
        self.assertNotIn("batch_speedup: 0.00", out)
        self.assertFalse(any("batch_speedup" in f for f in gate.failures))

    def test_main_exits_2_on_missing_gated_key(self):
        stale = {k: v for k, v in FULL_PARAMS.items()
                 if k not in ("batch_speedup", "traces_per_sec_batch")}
        with tempfile.TemporaryDirectory() as d:
            base_path = os.path.join(d, "baseline.json")
            rep_path = os.path.join(d, "report.json")
            with open(base_path, "w") as f:
                json.dump(baseline_for(FULL_PARAMS), f)
            with open(rep_path, "w") as f:
                json.dump(report(stale), f)
            argv = sys.argv
            sys.argv = ["bench_compare.py", "--baseline", base_path,
                        "--local", rep_path]
            try:
                with redirect_stdout(io.StringIO()) as out:
                    rc = bench_compare.main()
            finally:
                sys.argv = argv
        self.assertEqual(rc, 2)
        self.assertIn("batch_speedup", out.getvalue())
        self.assertIn("configuration error", out.getvalue())


class Invariants(unittest.TestCase):
    def test_digest_drift_fails(self):
        gate, _ = run(baseline_for(FULL_PARAMS), FULL_PARAMS,
                      digest="deadbeef")
        self.assertTrue(any("digest" in f for f in gate.failures))

    def test_bool_contract_fails_when_false(self):
        broken = dict(FULL_PARAMS, engine_bit_identical=False)
        gate, _ = run(baseline_for(FULL_PARAMS), broken)
        self.assertTrue(
            any("engine_bit_identical" in f for f in gate.failures))

    def test_pinned_drift_skips_digest_comparison(self):
        drifted = dict(FULL_PARAMS, style="RSM")
        gate, out = run(baseline_for(FULL_PARAMS), drifted, digest="other")
        self.assertTrue(any("pinned" in f for f in gate.failures))
        self.assertNotIn("determinism digest", out)


class LoadInputs(unittest.TestCase):
    def test_nameless_run_report_exits_with_message(self):
        nameless = report(FULL_PARAMS)
        del nameless["name"]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(nameless, f)
            path = f.name
        try:
            with self.assertRaises(SystemExit) as ctx:
                bench_compare.load_inputs([path])
            self.assertIn("no 'name' field", str(ctx.exception))
        finally:
            os.unlink(path)

    def test_schema3_report_is_refused(self):
        # /4 is the only report version the gate reads: a retired
        # lpa-run-report/3 document (even one with a resilience block)
        # stops the gate with a message naming the expected version.
        r3 = report(FULL_PARAMS)
        r3["schema"] = "lpa-run-report/3"
        r3["resilience"] = {"truncated": False, "resumed": True,
                            "stop_reason": "completed"}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r3.json")
            with open(path, "w") as f:
                json.dump(r3, f)
            with self.assertRaises(SystemExit) as ctx:
                bench_compare.load_inputs([path])
        self.assertIn("lpa-run-report/4", str(ctx.exception))

    def test_gbench_and_report_split(self):
        gb = {"benchmarks": [
            {"name": "BM_x", "run_type": "iteration", "real_time": 12.5},
            {"name": "BM_x_mean", "run_type": "aggregate", "real_time": 1.0},
        ]}
        with tempfile.TemporaryDirectory() as d:
            rp = os.path.join(d, "r.json")
            gp = os.path.join(d, "g.json")
            with open(rp, "w") as f:
                json.dump(report(FULL_PARAMS), f)
            with open(gp, "w") as f:
                json.dump(gb, f)
            reports, gbench = bench_compare.load_inputs([rp, gp])
        self.assertIn("bench_acquire_scaling", reports)
        self.assertEqual(gbench, {"BM_x": 12.5})


class CheckedInBaseline(unittest.TestCase):
    def test_repo_baseline_floors_every_ratio_param(self):
        # The checked-in baseline must already gate every ratio the current
        # bench binary measures (otherwise CI fails on the rule above).
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_baseline.json")
        with open(path) as f:
            base = json.load(f)
        entry = base["reports"]["bench_acquire_scaling"]
        for key in bench_compare.RATIO_PARAMS:
            self.assertIn(key, entry["min_ratio"], key)
        self.assertIn("engine_bit_identical", entry["require_true"])


if __name__ == "__main__":
    unittest.main()
