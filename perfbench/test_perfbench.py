#!/usr/bin/env python3
"""Self-tests of the repository benchmark at smoke size.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at tiny inputs (--smoke) through perfbench/run.py, which
builds the driver first. The tests check the result line against
BENCHMARK.json, the determinism guard (two runs of one seed give
bit-identical match counts and simulated times), that the traced run's
layers account for its batch wall, and that the benchmark refuses to run
without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(workload, trace, cwd=REPO, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    return info, result


class SmokeRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = [run(w, trace)]
            cls.runs[(w, 0)].append(run(w, 0))

    def test_result_line_matches_benchmark_json(self):
        names = {0: [m["name"] for m in SPEC["end_to_end"]],
                 1: [m["name"] for m in SPEC["per_layer"]]}
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for (w, trace), done in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(done[0].returncode, 0, done[0].stderr)
                info, result = parse(done[0])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(names[trace]))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                self.assertTrue(info["valid"])

    def test_counts_are_deterministic(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, second = (parse(d)[0] for d in self.runs[(w, 0)])
                self.assertEqual(first["counts_digest"],
                                 second["counts_digest"])

    # Known defect: ZeroCopyPolicy charges an extra 128-byte line when a
    # neighbor segment does not start on a line boundary (lines_for in
    # src/core/access_policy.cpp), so simulated match times depend on heap
    # addresses and differ between runs of one seed. Remove this marker once
    # the charge is a function of the data alone.
    @unittest.expectedFailure
    def test_simulated_times_are_deterministic(self):
        for w in WORKLOADS:
            first, second = (parse(d)[0] for d in self.runs[(w, 0)])
            self.assertEqual(first["sim_digest"], second["sim_digest"], w)

    def test_traced_layers_account_for_the_batch_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info, result = parse(self.runs[(w, 1)][0])
                self.assertGreater(info["traced_wall_ms"], 0.0)
                self.assertAlmostEqual(info["accounted_ms"],
                                       info["traced_wall_ms"],
                                       delta=1e-6 * info["traced_wall_ms"])
                self.assertGreater(
                    result["metrics"]["bench.trace_overhead"]["value"], 0.0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(WORKLOADS[0], 0, cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
