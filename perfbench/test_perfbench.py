#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

Usage (from the repository root):  python3 perfbench/test_perfbench.py

Builds perfbench, runs its unit tests (percentile rule, histogram, span
self time), then a tiny-size smoke run of every workload in both modes
through run.py, checking that each prints every metric BENCHMARK.json
names with its unit, that error_ratio is 0, and that the metric-to-layer
map in layers.json covers every per-layer metric.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench", "perfbench_unit"))
        cls.spec = load_json(ROOT, "BENCHMARK.json")

    def test_unit(self):
        out = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_unit")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)

    def smoke(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "0.5", "--trace",
             str(trace), "--scale", "tiny"],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = out.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Each metric is also printed on its own report line.
            self.assertTrue(
                any(l.split()[:1] == [m["name"]] and m["unit"] in l.split()
                    for l in lines), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        ratio_line = [l for l in lines if l.split()[:1] == ["error_ratio"]]
        self.assertEqual(len(ratio_line), 1)
        self.assertEqual(float(ratio_line[0].split()[1]), 0.0)
        self.assertIn("failed=0", ratio_line[0])
        why = [l for l in lines if l.startswith("why ")]
        spec_why = {w["name"]: w["why"] for w in self.spec["workloads"]}
        self.assertEqual(why, ["why " + spec_why[workload]])
        context = [l for l in lines if l.startswith("context ")]
        self.assertEqual(len(context), 1)
        ctx = json.loads(context[0][len("context "):])
        for key in ("seed", "nproc", "l3_bytes", "compiler", "build_type",
                    "git_sha"):
            self.assertIn(key, ctx)
        self.assertEqual(ctx["seed"], 7)
        return result

    def test_point_large(self):
        self.smoke("point-large", 0)
        self.smoke("point-large", 1)

    def test_point_hot(self):
        self.smoke("point-hot", 0)
        self.smoke("point-hot", 1)

    def test_txn_scan(self):
        self.smoke("txn-scan", 0)
        r = self.smoke("txn-scan", 1)
        self.assertEqual(r["metrics"]["mvcc.scan_restarts"]["value"], 0)
        self.assertGreater(r["metrics"]["txn.commits"]["value"], 0)

    def test_bad_workload_exits_nonzero_without_result(self):
        out = subprocess.run(
            [os.path.join(run.BUILD_DIR, "perfbench"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_layer_map_covers_metrics(self):
        layers = load_json(HERE, "layers.json")
        mapped = {m["name"] for m in layers["per_layer"]}
        self.assertEqual(mapped, {m["name"] for m in self.spec["per_layer"]})
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        for m in layers["per_layer"]:
            self.assertEqual(m["layer"], m["name"].split(".")[0], m["name"])
            for target in m["moves"]:
                self.assertIn(target["metric"], e2e, m["name"])
                self.assertIn(target["workload"], workloads, m["name"])
        self.assertEqual({m["name"] for m in layers["end_to_end"]}, e2e)


if __name__ == "__main__":
    unittest.main()
