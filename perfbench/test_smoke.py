#!/usr/bin/env python3
"""Smoke test of every perfbench workload on tiny instances.

    python3 perfbench/test_smoke.py

Builds perfbench, generates SF 0.002 fixtures under .bench_build/smoke/
and runs each workload untraced and traced with short settings. Asserts
that the outputs are correct, that every metric BENCHMARK.json names is
emitted (a traced run may leave out only the layers its workload does not
use), and that the traced pass of the offline workloads is at least 95%
covered by timed layer calls.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE = os.path.join(run.BUILD, "smoke")
TINY = {"prep-sf003": "Q4_H", "sample-sf001": "Q5_H", "serve-mix": "Q5_H"}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
        cls.config = run.load_json(os.path.join(run.HERE, "fixtures.json"))
        for noise in set(TINY.values()):
            out = os.path.join(SMOKE, noise)
            if not os.path.exists(os.path.join(out, "lineitem.tbl")):
                os.makedirs(out, exist_ok=True)
                subprocess.run([run.BINARY, "fixture", "--sf=0.002",
                                "--seed=7", f"--noise_query={noise}",
                                "--p=0.5", f"--out={out}"], check=True,
                               stdout=subprocess.DEVNULL)

    def run_workload(self, workload, trace):
        settings = dict(self.config["workloads"][workload])
        settings.update(open_requests=200, open_rate=200, batch=40)
        out = run.run_binary(workload, os.path.join(SMOKE, TINY[workload]),
                             seed=3, seconds=1, trace=trace,
                             settings=settings)
        self.assertIsNotNone(out, f"{workload} trace={trace} gave no result")
        self.assertTrue(out["correct"], out.get("errors"))
        self.assertEqual(out["failed"], 0)
        self.assertGreater(out["attempted"], 0)
        problems = run.check(workload, trace, out, out["fingerprint"],
                             self.bench)
        self.assertEqual(problems, [])
        return out["metrics"]

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.run_workload(workload, trace)
                    if trace == 0:
                        for m in self.bench["end_to_end"]:
                            self.assertGreater(metrics[m["name"]]["value"], 0,
                                               m["name"])

    def test_trace_covers_the_pass(self):
        for workload in ("prep-sf003", "sample-sf001"):
            with self.subTest(workload=workload):
                metrics = self.run_workload(workload, 1)
                self.assertGreaterEqual(metrics["trace.coverage"]["value"],
                                        0.95)


if __name__ == "__main__":
    unittest.main()
