#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py        # from the root of a checkout

Checks the names in BENCHMARK.json, that the documentation in
layers.json covers every metric, the failure accounting and the traced
run's equality check on fabricated results, and runs every workload on
tiny inputs in both modes: every declared metric must be emitted, and
the traced path, the counter-equality check and the digest check must
all pass.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DOC = json.loads((BENCH / "layers.json").read_text())


class Names(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_workloads_match_run_py(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_every_workload_and_layer_metric_is_documented(self):
        self.assertEqual(set(DOC["workloads"]), set(run.WORKLOADS))
        documented = [m for layer in DOC["layers"].values() for m in layer["metrics"]]
        self.assertEqual(len(documented), len(set(documented)), "a metric in two layers")
        self.assertEqual(set(documented), {m["name"] for m in SPEC["per_layer"]})
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for name, layer in DOC["layers"].items():
            self.assertTrue(set(layer["moves"]) <= e2e, name)


REF = {"pairs": 2, "digest": "a", "counts": {"filter_tiles": 5}, "aln_digest": "x"}


class Checks(unittest.TestCase):
    def ok(self, **kw):
        r = {"pairs_bad": 0, "digest": "a", "counts": {"filter_tiles": 5}, "resumed": 0}
        r.update(kw)
        return r

    def test_matching_run_passes(self):
        self.assertEqual(run.judge(self.ok(), REF), (0, None))

    def test_digest_mismatch_counts_as_a_failure(self):
        bad, problem = run.judge(self.ok(digest="b"), REF)
        self.assertEqual(bad, 1)
        self.assertIn("differs", problem)

    def test_degraded_pair_with_a_differing_digest_counts_once(self):
        one_pair = dict(REF, pairs=1)
        bad, _ = run.judge(self.ok(pairs_bad=1, digest="b"), one_pair)
        self.assertEqual(bad, 1)
        self.assertLessEqual(bad, one_pair["pairs"])

    def test_counter_mismatch_and_crash_count(self):
        self.assertEqual(run.judge(self.ok(counts={"filter_tiles": 6}), REF)[0], 1)
        self.assertEqual(run.judge(None, REF)[0], 2)
        self.assertEqual(run.judge(self.ok(pairs_bad=1), REF)[0], 1)

    def test_traced_counts_must_equal_the_program(self):
        same = {"counts": {"filter_tiles": 5}, "aln_digest": "x",
                "program_counts": None, "program_aln_digest": None}
        self.assertEqual(run.check_traces([REF], [same]), [])
        off = dict(same, counts={"filter_tiles": 4})
        self.assertEqual(len(run.check_traces([REF], [off])), 1)
        other_set = dict(same, aln_digest="y")
        self.assertEqual(len(run.check_traces([REF], [other_set])), 1)
        program_off = dict(same, program_counts={"filter_tiles": 4}, program_aln_digest="x")
        self.assertEqual(len(run.check_traces([REF], [program_off])), 1)


class Smoke(unittest.TestCase):
    """Every workload on tiny inputs, in both modes."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_declared_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(declared))
                    for name, m in metrics.items():
                        self.assertEqual(m["unit"], declared[name], name)
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace:
                        self.assertEqual(metrics["pairs_failed_ratio"]["value"], 0)
                    else:
                        self.assertEqual(metrics["pairs_ok_ratio"]["value"], 1)
                        self.assertGreater(metrics["wall_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
