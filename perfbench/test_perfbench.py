#!/usr/bin/env python3
"""The benchmark's own tests, at tiny sizes.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit
on every workload, that the traced replay reaches the end-to-end
Loc-RIB fingerprint, that a corrupted oracle is counted as failed
rounds, and that the command fails cleanly outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
    lines = [l for l in proc.stdout.decode().splitlines() if l.strip()]
    return proc.returncode, lines


def result(lines):
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    return out


def detail(lines):
    return json.loads(lines[-2])["detail"]


class Metrics(unittest.TestCase):
    def check_metrics(self, trace, spec):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, trace)
                self.assertEqual(code, 0)
                out = result(lines)
                self.assertTrue(out["correct"], detail(lines))
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 2)
                self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in spec))
                for m in spec:
                    got = out["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])
                yield w, out, lines

    def test_end_to_end_metrics(self):
        for _, out, _ in self.check_metrics(0, BENCH["end_to_end"]):
            for name, m in out["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_replay_fingerprint(self):
        for w, out, lines in self.check_metrics(1, BENCH["per_layer"]):
            d = detail(lines)
            self.assertEqual(d["replay_fingerprint"], d["fingerprint"])
            self.assertGreater(out["metrics"]["trace.coverage"]["value"], 0)
            if w == "peer-flap":
                self.assertEqual(d["peer_down_source"], "replay")


class Failures(unittest.TestCase):
    def test_corrupted_oracle_counts_as_failed(self):
        code, lines = run("small-updates", 0, "--corrupt-oracle")
        self.assertEqual(code, 0)
        out = result(lines)
        self.assertFalse(out["correct"])
        self.assertGreater(out["attempted"], 0)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertEqual(detail(lines)["fail_ratio"], 1)

    def test_fails_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("fulltable", 0, cwd=d)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
