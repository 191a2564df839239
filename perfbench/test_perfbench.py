#!/usr/bin/env python3
"""Tests of the benchmark itself (not of FloretSim):

    python3 perfbench/test_perfbench.py

The workload tests build the harness on first use and run every workload at
reduced size (--quick), so they take about half a minute.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as perfbench  # noqa: E402

with open(os.path.join(perfbench.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def span(name, ts, dur, tid=1, pid=1, cat="run"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid}


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(perfbench.BENCH_DIR, "run.py"),
                           *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_on_the_same_thread(self):
        events = [span("A", 0, 100), span("B", 10, 30), span("C", 20, 5),
                  span("D", 50, 40), span("E", 0, 60, tid=2)]
        # A loses B and D (not C, a grandchild); E is on another thread.
        self.assertEqual(perfbench.self_times(events), [30, 25, 5, 40, 60])

    def test_child_overhanging_its_parent_is_clipped(self):
        events = [span("A", 0, 100), span("B", 90, 30)]
        self.assertEqual(perfbench.self_times(events), [90, 30])

    def test_uncovered_time_merges_overlapping_spans(self):
        others = [span("x", 10, 20), span("y", 20, 30, tid=2), span("z", 80, 40, tid=3)]
        # Covered: [10, 50) and [80, 100) -> 60 of 100.
        self.assertEqual(perfbench.uncovered_time(span("S", 0, 100), others), 40)

    def test_layer_metrics_on_a_synthetic_trace(self):
        events = [
            span("workload", 0, 1000, cat="bench"),
            span("fig3", 0, 1000, cat="scenario"),
            span("sweep_point", 100, 400, tid=2),
            span("build_fabric", 100, 50, tid=2),
            span("evaluate_noi", 200, 250, tid=2),
            span("sweep_point", 100, 200, tid=3),
            span("evaluate_noi", 120, 150, tid=3),
        ]
        counters = {"sim.phase_alloc_hops": 1000, "sim.cycles_stepped": 100,
                    "sim.cycles": 200, "mix.rounds": 4, "noi.sims_reused": 1}
        m, table = perfbench.layer_metrics({"traceEvents": events},
                                           {"counters": counters}, None, 0)
        us = 1e-6
        self.assertEqual(m["sweep.points"][0], 2)
        self.assertAlmostEqual(m["mix.self_s"][0], (100 + 50) * us)
        self.assertAlmostEqual(m["noi.eval_share"][0], 400 / 600)
        self.assertAlmostEqual(m["noc.ns_per_flit_hop"][0], 400 * 1e3 / 1000)
        self.assertAlmostEqual(m["noc.flit_hops_per_stepped_cycle"][0], 10.0)
        self.assertAlmostEqual(m["mix.epoch_reuse_share"][0], 0.25)
        # The scenario's children run on other threads: its self time is
        # the part of [0, 1000) no other span covers, i.e. outside [100, 500).
        self.assertAlmostEqual(m["scenario.fig3_s"][0], 1000 * us)
        self.assertAlmostEqual(m["scenario.self_s"][0], 600 * us)
        self.assertEqual(table["sweep_point"], [2, 600, 150])


class OutputCheck(unittest.TestCase):
    def op(self, name, digest, capped=False, error=None):
        return {"name": name, "digest": digest, "capped": capped, "error": error}

    def test_errors_caps_and_mismatches_fail(self):
        iterations = [{"ops": [self.op("a", "1"), self.op("b", "2"),
                               self.op("c", "3", capped=True),
                               self.op("d", "4", error="boom")]}]
        self.assertEqual(perfbench.check_outputs(iterations, {"a": "1", "b": "9"})[:2],
                         (4, 3))

    def test_without_goldens_iterations_must_agree(self):
        iterations = [{"ops": [self.op("a", "1")]}, {"ops": [self.op("a", "2")]}]
        self.assertEqual(perfbench.check_outputs(iterations, None)[:2], (2, 1))

    def test_planted_digest_mismatch_fails_the_run(self):
        # A run that reproduces the committed goldens exactly: one iteration,
        # a drain into each of the Floret fabric's 100 nodes.
        golden = perfbench.load_golden(perfbench.GOLDEN, "full", "hotspot_drain", 1)
        self.assertEqual(len(golden), 100)
        iterations = [{"ops": [self.op(name, digest) for name, digest in golden.items()]}]
        self.assertEqual(perfbench.check_outputs(iterations, golden)[:2], (100, 0))

        planted = dict(golden, drain2="0" * 16)
        attempted, failed, problems = perfbench.check_outputs(iterations, planted)
        self.assertEqual((attempted, failed), (100, 1))
        self.assertIn("drain2", problems[0])


class Workloads(unittest.TestCase):
    def check(self, workload, trace, listed):
        result = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                       "--trace", str(trace), "--quick")
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_every_workload_reduced(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.check(workload, 0, BENCHMARK["end_to_end"])
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                layers = self.check(workload, 1, BENCHMARK["per_layer"])
                self.assertGreater(layers["sim.runs"]["value"], 0)
                self.assertGreater(layers["topo.fabric_builds"]["value"], 0)
                self.assertEqual(layers["obs.dropped_events"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
