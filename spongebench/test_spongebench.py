#!/usr/bin/env python3
"""The benchmark's own test: determinism and seed sensitivity.

Runs tiny shapes of all three workloads through run.py (which builds the
binary on first use) and checks that

  * the same seed reproduces every simulated metric byte for byte,
  * a different seed changes them,
  * every run passes its own correctness checks, and
  * both modes print exactly the metrics BENCHMARK.json declares.

Run from the repository root:  python3 spongebench/test_spongebench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("skew_sponge", "skew_disk", "dc_replay")


def run_tiny(workload, seed, trace, sim_out):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--shape", "tiny",
         "--sim-out", sim_out],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(sim_out) as f:
        sim = f.read()
    return result, sim


class SpongeBenchTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def sim_path(self, name):
        return os.path.join(self.tmp.name, name)

    def test_same_seed_is_byte_identical_and_new_seed_differs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, sim_a = run_tiny(workload, 5, 0, self.sim_path("a"))
                _, sim_b = run_tiny(workload, 5, 0, self.sim_path("b"))
                _, sim_c = run_tiny(workload, 6, 0, self.sim_path("c"))
                self.assertTrue(first["correct"], first)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(sim_a, sim_b)
                self.assertNotEqual(sim_a, sim_c)
                makespan = json.loads(sim_a)["sim_makespan_s"]
                self.assertGreater(makespan, 0)

    def test_traced_run_reports_declared_per_layer_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = [m["name"] for m in spec["per_layer"]]
        result, _ = run_tiny("dc_replay", 5, 1, self.sim_path("t"))
        self.assertTrue(result["correct"], result)
        self.assertEqual(list(result["metrics"]), declared)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["obs.trace_events"], 0)
        self.assertGreater(metrics["obs.trace_overhead"], 0)
        self.assertGreater(metrics["trace.chunk.store.total_s"], 0)
        # The replay does no MapReduce work.
        self.assertEqual(metrics["mapred.spill_mb.sponge"], 0)
        self.assertEqual(metrics["mapred.spill_mb.disk"], 0)


if __name__ == "__main__":
    unittest.main()
