#!/usr/bin/env python3
"""Tests of the pnm benchmark itself.

    python3 pnmbench/tests/test_bench.py        (from the repository root)

- the load generator's own cases (pnmbench_loadgen_test): a stalled
  server's delay appears in due-time latency, an overdriven sender's
  lateness is reported, a wrong answer counts as wrong and failed;
- the traced run's reconciliation (pnmbench_trace_test): complete spans
  balance, and dropping a span or tracing a task outside the pool fails
  the bound;
- a reduced smoke run (--smoke) of every workload on two seeds, untraced
  and traced, each of which must pass every correctness gate and report
  every metric of BENCHMARK.json;
- the benchmark refuses to run, without a result, outside a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
RUN = os.path.join("pnmbench", "run.py")
SEEDS = (1, 2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


class BenchmarkTest(unittest.TestCase):
    def run_test_binary(self, name):
        # Any smoke run builds the test binaries along with the benchmark.
        built = run_bench("serve_ladder", 1, 0)
        self.assertEqual(built.returncode, 0, built.stderr)
        build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        build_dir = os.path.join(ROOT, build_root, "pnmbench-release")
        result = subprocess.run([os.path.join(build_dir, name)], cwd=build_dir,
                                capture_output=True, text=True, timeout=120, check=False)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_loadgen(self):
        self.run_test_binary("pnmbench_loadgen_test")

    def test_trace_reconciliation(self):
        self.run_test_binary("pnmbench_trace_test")

    def test_smoke_every_workload_two_seeds(self):
        spec = load_spec()
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        result = run_bench(workload, seed, trace)
                        self.assertEqual(result.returncode, 0, result.stderr)
                        report = json.loads(result.stdout.strip().splitlines()[-1])
                        self.assertEqual(set(report),
                                         {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(report["correct"])
                        self.assertGreaterEqual(report["attempted"], 1)
                        self.assertEqual(report["failed"], 0)
                        self.assertEqual(set(report["metrics"]),
                                         {m["name"] for m in spec[kind]})

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "pnmbench"), os.path.join(bare, "pnmbench"))
            result = run_bench("campaign_cold", 1, 0, cwd=bare)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
