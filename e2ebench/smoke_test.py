#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json for one pass, untraced and traced, and
asserts that
  * the result line has exactly the keys correct/attempted/failed/metrics,
  * the correctness check ran and passed,
  * the untraced run reports every end-to-end metric with its unit,
  * the traced run reports every per-layer metric with its unit, reconciles
    its spans with StageReport times within the bound and writes its trace
    file.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    # A traced smoke run replays for at least its --seconds, so its spans
    # reconcile with the stage times despite short swings in host speed.
    seconds = 6 if trace else 1
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, wanted):
        code, lines, result = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(any(l.startswith("correctness: all outputs passed")
                            for l in lines), "\n".join(lines))
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return lines, metrics

    def test_workloads(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                _, metrics = self.check_result(name, 0, SPEC["end_to_end"])
                self.assertGreater(metrics["ops_per_s"]["value"], 0)
                self.assertEqual(metrics["ok_share"]["value"], 1)
            with self.subTest(workload=name, trace=1):
                lines, metrics = self.check_result(name, 1, SPEC["per_layer"])
                recon = [l for l in lines
                         if l.startswith("note: reconciliation")]
                self.assertEqual(len(recon), 1, "\n".join(lines))
                self.assertIn("): ok,", recon[0])
                self.assertGreater(metrics["map.ms"]["value"], 0)
                trace_file = os.path.join(ROOT, ".bench_build", "e2e-out",
                                          "trace-%s-seed1.json" % name)
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                for span in ("input", "stg.reach", "synth", "map", "verify"):
                    self.assertIn(span, names)


if __name__ == "__main__":
    unittest.main()
