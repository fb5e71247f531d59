#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, that a tampered golden counts as a
failed operation, a tiny run of every workload (one traced), and that
the per-layer metric list matches BENCHMARK.json and the program's
theorem ids.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

GOLDENS = harness.load_goldens()


def first_key(prefix: str, exit_code: int) -> str:
    return next(k for k, g in sorted(GOLDENS.items()) if k.startswith(prefix) and g["exit"] == exit_code)


# the cheapest operations of each workload, covering exit codes 0, 2 and 3
TINY = {
    "census": ["n4_agss"],
    "census-pool": ["n4_agss"],
    "verify-large": ["yx9"],
    "verify-corpus": [
        "c" + first_key("corpus/", code).split("/")[1] for code in (0, 2, 3)
    ],
}


def tiny_pass(workload: str, **kw) -> dict:
    return harness.run_pass(workload, 7, 0, timeout=120, only=TINY[workload], **kw)


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            ("root", 0.0, 10.0, -1, "op"),
            ("a", 1.0, 4.0, 0, "op"),
            ("b", 5.0, 9.0, 0, "op"),
            ("a", 6.0, 7.0, 2, "op"),
        ]
        self.assertEqual(layertrace.self_times(spans), [3.0, 3.0, 3.0, 1.0])
        by_label, by_op = layertrace.aggregate(spans)
        self.assertEqual(by_label["a"], [2, 4.0, 4.0])
        self.assertEqual(by_label["root"], [1, 10.0, 3.0])
        self.assertEqual(by_op["op"]["b"], [1, 4.0, 3.0])


class Correctness(unittest.TestCase):
    def test_tampered_golden_counts_as_failed(self):
        records = tiny_pass("verify-corpus")["ops"]
        self.assertEqual(harness.judge(records, GOLDENS), [])
        self.assertTrue(any(rec.get("replay") for rec in records))
        for field, bad in (("sha256", "0" * 64), ("exit", 1)):
            tampered = {k: dict(v) for k, v in GOLDENS.items()}
            tampered[records[0]["key"]][field] = bad
            self.assertEqual(len(harness.judge(records, tampered)), 1, field)

    def test_unreplayable_counterexample_counts_as_failed(self):
        rec = {"op": "x", "key": first_key("corpus/", 2), "exit": 2, "replay": False}
        rec["sha256"] = GOLDENS[rec["key"]]["sha256"]
        self.assertEqual(len(harness.judge([rec], GOLDENS)), 1)


class TinyRuns(unittest.TestCase):
    def test_every_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny_pass(workload)
                self.assertEqual(len(result["ops"]), len(TINY[workload]))
                self.assertEqual(harness.judge(result["ops"], GOLDENS), [])
                self.assertGreater(result["setup_s"], 0)

    def test_traced_filter_space(self):
        result = harness.run_pass(
            "census", 7, 0, timeout=120, only=["n3m2_ag_intra"],
            trace=harness.OUT / "selftest.spans.csv.gz",
        )
        self.assertEqual(harness.judge(result["ops"], GOLDENS), [])
        values = layers.layer_values(result, [result["wall_s"]], [], [])
        self.assertEqual(values["search.canonicalize.calls.n3m2_ag_intra"], 201)
        self.assertEqual(values["regularity.is_intra_regular.calls"], 1095)
        self.assertIsNone(values["model.axiom_profile.calls"])
        self.assertGreaterEqual(result["bindings"]["subsets.subset_product"], 4)


class MetricList(unittest.TestCase):
    def test_per_layer_matches_benchmark_json(self):
        spec = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(layers.PER_LAYER))
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_theorem_ids_match_program(self):
        sys.path.insert(0, str(workloads.SRC))
        from gag.theorems import TheoremId

        self.assertEqual(layers.THEOREM_IDS, tuple(t.value for t in TheoremId))


if __name__ == "__main__":
    unittest.main()
