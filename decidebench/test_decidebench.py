#!/usr/bin/env python3
"""Self-tests of the time-to-decide benchmark (tiny n, a few seconds).

    python3 decidebench/test_decidebench.py

Runs every workload in --smoke mode, untraced and traced, and checks that
each run is correct and prints exactly the metrics BENCHMARK.json names,
each with its unit; and that bad arguments exit non-zero without a result.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run("--workload", workload, "--smoke", "--seconds", "0.2",
                   "--seed", "3", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            # The human-readable table names every metric too.
            self.assertTrue(any(l.split()[:1] == [m["name"]] for l in lines),
                            m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in [w["name"] for w in spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)

    def test_end_to_end_metrics_are_nonzero(self):
        proc = run("--workload", "census-128", "--smoke", "--seconds", "0.2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        for name, m in metrics.items():
            self.assertGreater(m["value"], 0, name)

    def test_unknown_workload_fails_without_result(self):
        proc = run("--workload", "no-such-workload")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
