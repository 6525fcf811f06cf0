#!/usr/bin/env python3
"""Tests of the benchmark itself: its correctness checks fire, its fault
switch trips them, and what it prints matches BENCHMARK.json.

Run from the repository root (a few minutes; builds first if needed):

    python3 perfbench/test_checks.py
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
SECONDS = "2"
FAULT_MARKER = "corrupted-by-fault-switch"
KNOWN_ENGINE_RACE = "engine call-tracking tables did not drain"


def run(workload, fault="none", trace=0, seed=11, cwd=ROOT, script=RUN,
        seconds=SECONDS):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--fault", fault],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def has_result(proc):
    lines = proc.stdout.strip().splitlines()
    return bool(lines) and lines[-1].startswith("{")


class BenchmarkChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_listed_workloads_pass_and_print_the_declared_metrics(self):
        end_to_end = [m["name"] for m in self.spec["end_to_end"]]
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        for w in self.spec["workloads"]:
            for trace, names in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    r = result_of(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(list(r["metrics"]), names)

    def test_fault_switch_trips_each_check(self):
        for workload, fault in (("ycsbt-wan", "replica"),
                                ("chain-lan-nopredict", "result"),
                                ("chain-lan", "result"),
                                ("qstream-batch", "replica")):
            with self.subTest(workload=workload):
                proc = run(workload, fault=fault)
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                # The check must report the value the fault wrote, not some
                # other failure that happened to come first.
                self.assertIn("CHECK FAILED", proc.stderr)
                self.assertIn(FAULT_MARKER, proc.stderr)
                self.assertFalse(has_result(proc))

    def test_chain_lan_fails_only_on_the_engine_race(self):
        # Known program defect (perfbench/README.md): a race in
        # SpecEngine::start_call leaves a server's incoming-RPC record
        # behind, so the drain check fails in some runs and not others,
        # depending on host noise. Every other check must hold. When the
        # engine is fixed, add chain-lan to BENCHMARK.json.
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = run("chain-lan", trace=trace)
                if proc.returncode != 0:
                    self.assertIn(KNOWN_ENGINE_RACE, proc.stderr,
                                  proc.stderr[-2000:])
                    self.assertFalse(has_result(proc))
                    continue
                r = result_of(proc)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)

    def test_qstream_batch_serial_replay_exposes_lost_increments(self):
        # Known program defect (perfbench/README.md): batch commits stamp
        # versions at plan time, and commit_batch drops a committed write
        # whose version is not newer than the key's, so concurrent clients
        # lose increments on the shared hot counters. When this starts
        # passing, the defect is fixed: add qstream-batch to BENCHMARK.json.
        # About 3 in 10 runs of 5 s show it, so 15 s runs on up to 6 seeds
        # miss it with a probability well below 1%.
        for seed in range(1, 7):
            proc = run("qstream-batch", seed=seed, seconds="15")
            if proc.returncode != 0:
                self.assertIn("serial replay", proc.stderr)
                self.assertFalse(has_result(proc))
                return
        self.fail("serial replay held on 6 seeds: re-add qstream-batch to "
                  "BENCHMARK.json")

    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        try:
            proc = run("chain-lan", cwd=scratch,
                       script=os.path.join(scratch, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(has_result(proc))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
