#!/usr/bin/env python3
"""Tests of the benchmark itself: quick mode of every workload.

    python3 perfbench/test_perfbench.py

Each workload runs with --quick, untraced and traced. A run must exit
0, pass its own output checks, count no failed unit, and print every
metric BENCHMARK.json declares for that mode by name with its unit.
The first test builds the driver if it is not built yet.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SERVE_LAYERS = ["serve.submit_p50_ms", "serve.run_p50_ms",
                "serve.campaigns", "record.append_p50_us",
                "util.busy_share"]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_quick(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out


class QuickMode(unittest.TestCase):
    def check(self, workload, trace):
        out = run_quick(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        if workload == "serve":
            # Not gated: reports what the driver measured.
            names = (SERVE_LAYERS if trace else
                     [m["name"] for m in declared()["end_to_end"]])
            for name in names:
                self.assertIn(name, result["metrics"])
                self.assertGreater(result["metrics"][name]["value"], 0, name)
            return
        wanted = declared()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {entry["name"] for entry in wanted})
        for entry in wanted:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(metric["value"], (int, float))
            if not trace:
                self.assertGreater(metric["value"], 0, entry["name"])

    def test_workloads(self):
        for workload in [w["name"] for w in declared()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_serve(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check("serve", trace)

    def test_fails_without_framework_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "campaign", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
