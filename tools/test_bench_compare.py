#!/usr/bin/env python3
"""Unit tests for the perf gate (tools/bench_compare.py).

Stdlib-only (unittest + tempfile); registered as a tier-1 ctest when a
Python interpreter is available (tests/CMakeLists.txt). Each case feeds
main() a perfbench result line and a baseline, and checks its exit
status: 0 passes, 1 is a regression, 2 is a configuration error.
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

REFERENCE_NS = {"LUT": 900.0, "OPT": 600.0, "GLUT": 60000.0, "RSM": 20000.0,
                "RSM-ROM": 50000.0, "ISW": 15000.0, "TI": 120000.0}


def result(correct=True, slow=None, drop=None):
    """A perfbench result line: batch 5x and compiled 1.25x faster than the
    reference on every style; `slow` engine/style pairs run 2x slower and
    `drop` names metrics the run lacks."""
    metrics = {}
    for style, ns in REFERENCE_NS.items():
        for engine, speedup in (("reference", 1.0), ("batch", 5.0),
                                ("compiled", 1.25)):
            factor = 2.0 if (engine, style) in (slow or ()) else 1.0
            metrics[f"sim.{engine}_ns_per_trace.{style}"] = {
                "value": ns / speedup * factor, "unit": "ns"}
    for name in drop or ():
        del metrics[name]
    return {"correct": correct, "attempted": 134,
            "failed": 0 if correct else 1, "metrics": metrics}


def floors_at(res):
    """Floors equal to every ratio of `res`: the run sits at its floors."""
    return bench_compare.ratios(res["metrics"])


def run_main(floors, res):
    baseline = {"schema": bench_compare.BASELINE_SCHEMA,
                "perfbench": {"min_ratio": floors}}
    with tempfile.TemporaryDirectory() as d:
        base_path = os.path.join(d, "baseline.json")
        out_path = os.path.join(d, "perfbench.out")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        with open(out_path, "w") as f:
            f.write("workload fig7-matrix, seed 0, 2 repetitions\n")
            f.write(json.dumps(res) + "\n")
        argv = sys.argv
        sys.argv = ["bench_compare.py", "--baseline", base_path, out_path]
        try:
            with redirect_stdout(io.StringIO()) as out:
                rc = bench_compare.main()
        finally:
            sys.argv = argv
    return rc, out.getvalue()


class Gate(unittest.TestCase):
    def test_run_at_its_floors_passes(self):
        res = result()
        rc, out = run_main(floors_at(res), res)
        self.assertEqual(rc, 0, out)
        self.assertIn("all perf gate checks passed", out)

    def test_pooled_ratio_is_the_geometric_mean(self):
        measured = bench_compare.ratios(result(slow={("batch", "TI")})
                                        ["metrics"])
        self.assertAlmostEqual(measured["reference_over_batch.TI"], 2.5)
        self.assertAlmostEqual(measured["reference_over_batch.geomean"],
                               5.0 * 0.5 ** (1 / 7))
        self.assertAlmostEqual(measured["reference_over_compiled.geomean"],
                               1.25)

    def test_one_ratio_below_its_floor_exits_1(self):
        rc, out = run_main(floors_at(result()),
                           result(slow={("batch", "GLUT")}))
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL] reference_over_batch.GLUT", out)
        self.assertIn("FAIL] reference_over_batch.geomean", out)
        self.assertNotIn("FAIL] reference_over_batch.ISW", out)
        self.assertNotIn("FAIL] reference_over_compiled", out)

    def test_incorrect_run_fails(self):
        res = result(correct=False)
        rc, out = run_main(floors_at(res), res)
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL] correct: 1 of 134 operations failed", out)

    def test_floored_key_missing_from_the_run_exits_2(self):
        # Without its batch time TI has no per-style ratio, and the pool
        # needs every style: both floors are configuration errors.
        rc, out = run_main(floors_at(result()),
                           result(drop={"sim.batch_ns_per_trace.TI"}))
        self.assertEqual(rc, 2, out)
        self.assertIn("HARD] reference_over_batch.TI", out)
        self.assertIn("HARD] reference_over_batch.geomean", out)

    def test_unknown_floor_exits_2(self):
        res = result()
        rc, out = run_main(dict(floors_at(res),
                                **{"reference_over_batch.PRESENT": 1.0}),
                           res)
        self.assertEqual(rc, 2, out)

    def test_last_line_must_be_the_result(self):
        with tempfile.NamedTemporaryFile("w", suffix=".out",
                                         delete=False) as f:
            f.write(json.dumps(result()) + "\nperfbench: build failed\n")
            path = f.name
        try:
            with self.assertRaises(SystemExit) as ctx:
                bench_compare.load_result(path)
            self.assertIn("JSON result", str(ctx.exception))
        finally:
            os.unlink(path)


class CheckedInBaseline(unittest.TestCase):
    def test_floors_every_style_both_engines_and_the_pools(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_baseline.json")
        with open(path) as f:
            base = json.load(f)
        self.assertEqual(base["schema"], bench_compare.BASELINE_SCHEMA)
        floors = base["perfbench"]["min_ratio"]
        self.assertEqual(sorted(floors), sorted(bench_compare.ratio_keys()))
        self.assertEqual(len(floors), 2 * (7 + 1))
        for key, floor in floors.items():
            self.assertGreater(floor, 0.0, key)
        # obs-smoke reads the pinned digest and its configuration here.
        self.assertEqual(base["bench_acquire_scaling"],
                         {"style": "GLUT", "traces_per_class": 16,
                          "determinism_digest": "e03e076702875522"})


if __name__ == "__main__":
    unittest.main()
