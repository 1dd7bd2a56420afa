#!/usr/bin/env python3
"""Tests of the benchmark's own aggregation and verification.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import aggregate  # noqa: E402


def span(name, unit, sample, dur, t0=0.0, accesses=0, warm=False,
         traced=False, outer=None, args=None, wall=None):
    return {"type": "span", "name": name, "unit": unit, "sample": sample,
            "warm": warm, "traced": traced, "t0": t0,
            "wall": dur if wall is None else wall, "dur": dur,
            "outer": dur if outer is None else outer,
            "accesses": accesses, "args": args or {}}


def unit(u, uid, kind="cell", stream=1000, multiplicity=1):
    return {"type": "unit", "unit": u, "id": uid, "kind": kind,
            "stream_accesses": stream, "multiplicity": multiplicity}


CAMPAIGN_CELL = {"env": "virt", "workload": "Redis", "design": "pvdmt",
                 "thp": False, "seed": 7, "accesses": 50000,
                 "walks": 1234, "walk_cycles": 5.5e4, "seq_refs": 1300}


def result(u, sample, cell=None, counters=None, warm=False):
    report = None
    if cell is not None:
        report = {"schema": "dmt-campaign-v1", "cells": [cell]}
    return {"type": "result", "unit": u, "sample": sample, "warm": warm,
            "traced": False, "report": report,
            "counters": counters or {"tlb.l1d.hits": 5}}


def two_cell_run():
    """Two cells, a warm-up pass and three interleaved timed samples."""
    recs = [unit(0, "native-GUPS-vanilla-4k", stream=1000),
            unit(1, "virt-Redis-pvdmt-4k", stream=3000)]
    ctor = {0: [9.0, 2.0, 3.0, 1.5], 1: [9.0, 4.0, 5.0, 6.0]}
    setup = {0: [9.0, 1.0, 0.5, 0.7], 1: [9.0, 2.0, 2.5, 3.0]}
    tear = {0: [9.0, 0.3, 0.2, 0.4], 1: [9.0, 0.6, 0.9, 0.8]}
    slice_s = {0: [9e-3, 2e-3, 1e-3, 3e-3], 1: [9e-3, 6e-3, 8e-3, 7e-3]}
    for s in range(4):
        for u in (0, 1):
            warm = s == 0
            recs.append(span("sim.testbed_ctor", u, s - 1, ctor[u][s],
                             warm=warm))
            recs.append(span("workloads.setup", u, s - 1, setup[u][s],
                             warm=warm))
            recs.append(span("sim.advance", u, s - 1, slice_s[u][s],
                             accesses=1000, warm=warm))
            # A short tail slice: faster in total, never compared.
            recs.append(span("sim.advance", u, s - 1, 1e-5, accesses=10,
                             warm=warm))
            recs.append(span("sim.teardown", u, s - 1, tear[u][s],
                             warm=warm))
    recs.append({"type": "run", "peak_rss_kb": 2048})
    return aggregate.Run(recs)


class Aggregation(unittest.TestCase):
    def test_unit_minimum_skips_warm_up(self):
        run = two_cell_run()
        self.assertEqual(aggregate.unit_best(run, "sim.testbed_ctor"),
                         {0: 1.5, 1: 4.0})

    def test_per_access_best_uses_full_slices_only(self):
        run = two_cell_run()
        best = aggregate.unit_best_per_access(run, "sim.advance")
        self.assertAlmostEqual(best[0], 1e-6)
        self.assertAlmostEqual(best[1], 6e-6)

    def test_workload_value_is_sum_of_unit_minimums(self):
        m = aggregate.end_to_end(two_cell_run())
        setup = (1.5 + 0.5) + (4.0 + 2.0)
        teardown = 0.2 + 0.6
        loop = 1e-6 * 1000 + 6e-6 * 3000
        self.assertAlmostEqual(m["setup_s"], setup)
        self.assertAlmostEqual(m["teardown_s"], teardown)
        self.assertAlmostEqual(m["cell_s"], setup + loop + teardown)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_rate_divides_sums_built_from_minimums(self):
        self.assertAlmostEqual(
            aggregate.rate({0: 100, 1: 300}, {0: 1e-6, 1: 2e-6}),
            400 / (100e-6 + 600e-6))
        m = aggregate.end_to_end(two_cell_run())
        self.assertAlmostEqual(m["maccess_per_s"],
                               4000 / (1e-6 * 1000 + 6e-6 * 3000) / 1e6)

    def test_tenant_setup_counts_once_per_tenant(self):
        run = aggregate.Run([
            unit(0, "node", kind="node", stream=640),
            unit(1, "tenant", kind="tenant", stream=0, multiplicity=64),
            span("host.ctor", 0, 0, 0.01), span("host.run", 0, 0, 2.0),
            span("host.run", 0, 1, 1.0), span("host.teardown", 0, 0, 0.1),
            span("sim.testbed_ctor", 1, 0, 0.002),
            span("workloads.setup", 1, 0, 0.003),
            span("sim.teardown", 1, 0, 0.5),
            {"type": "run", "peak_rss_kb": 1024}])
        m = aggregate.end_to_end(run)
        self.assertAlmostEqual(m["setup_s"], 0.01 + 64 * 0.005)
        self.assertAlmostEqual(m["teardown_s"], 0.1)
        # run() already holds the tenant set-ups; cell_s counts them once.
        self.assertAlmostEqual(m["cell_s"], 0.01 + 1.0 + 0.1)
        self.assertAlmostEqual(m["maccess_per_s"], 640 / 1.0 / 1e6)

    def test_self_time_subtracts_children(self):
        spans = [span("cell", 0, 0, 10.0, t0=0.0),
                 span("sim.testbed_ctor", 0, 0, 3.0, t0=1.0),
                 span("sim.teardown", 0, 0, 2.0, t0=7.0),
                 span("sim.testbed_ctor", 0, 1, 4.0, t0=1.0)]
        self.assertEqual(aggregate.self_times(spans), [5.0, 3.0, 2.0, 4.0])

    def test_self_time_nests_by_wall_clock_subtracts_cpu(self):
        # The child waited 1 s for a CPU inside its 4 s on the wall.
        spans = [span("cell", 0, 0, 8.0, t0=0.0, wall=10.0),
                 span("sim.testbed_ctor", 0, 0, 3.0, t0=1.0, wall=4.0)]
        self.assertEqual(aggregate.self_times(spans), [5.0, 3.0])

    def test_trace_overhead_compares_traced_with_untraced(self):
        recs = [unit(0, "c", stream=100)]
        for s, traced in ((0, True), (1, False)):
            scale = 1.1 if traced else 1.0
            recs += [span("sim.testbed_ctor", 0, s, 1.0, traced=traced,
                          outer=1.0 * scale),
                     span("sim.advance", 0, s, 0.1, accesses=100,
                          traced=traced, outer=0.1 * scale),
                     span("sim.teardown", 0, s, 0.4, traced=traced,
                          outer=0.4 * scale)]
        run = aggregate.Run(recs)
        self.assertAlmostEqual(aggregate.trace_overhead(run), 1.1)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_grammar(self):
        good = ["cell_s", "maccess_per_s"]
        bad = ["", "_x", "a b", "x" * 65, "sim.loop_s"]
        for n in good:
            self.assertTrue(aggregate.valid_metric_name(n, False), n)
        for n in bad:
            self.assertFalse(aggregate.valid_metric_name(n, False), n)
        self.assertTrue(aggregate.valid_metric_name(
            "sim.loop_ns_per_access.nested-pvdmt", True))
        for n in ("loop_s", "gpu.util", "sim.", "sim.Loop", "sim..x"):
            self.assertFalse(aggregate.valid_metric_name(n, True), n)

    def test_benchmark_json_matches_the_emitted_metrics(self):
        for key, table, layer in (("end_to_end", aggregate.END_TO_END,
                                   False),
                                  ("per_layer", aggregate.PER_LAYER,
                                   True)):
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(declared, list(table))
            for name, u in declared:
                self.assertTrue(aggregate.valid_metric_name(name, layer),
                                name)
                self.assertRegex(u, aggregate.UNIT_RE)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Verification(unittest.TestCase):
    def run_with(self, cells, counters=None):
        recs = [unit(0, "virt-Redis-pvdmt-4k")]
        for s, cell in enumerate(cells):
            recs.append(result(0, s - 1, cell, counters, warm=s == 0))
        return aggregate.Run(recs)

    def campaign(self, cell=CAMPAIGN_CELL):
        return aggregate.campaign_index({"cells": [cell]})

    def test_matching_reference_passes(self):
        run = self.run_with([CAMPAIGN_CELL] * 3)
        self.assertEqual(aggregate.verify(run, self.campaign()),
                         (3, 0, []))

    def test_perturbed_reference_value_is_caught(self):
        ref = dict(CAMPAIGN_CELL, walks=CAMPAIGN_CELL["walks"] + 1)
        attempted, failed, problems = aggregate.verify(
            self.run_with([CAMPAIGN_CELL] * 3), self.campaign(ref))
        self.assertEqual((attempted, failed), (3, 3))
        self.assertIn("walks", problems[0])

    def test_missing_reference_cell_is_caught(self):
        other = dict(CAMPAIGN_CELL, design="vanilla")
        _, failed, _ = aggregate.verify(self.run_with([CAMPAIGN_CELL]),
                                        self.campaign(other))
        self.assertEqual(failed, 1)

    def test_samples_must_agree(self):
        drifted = dict(CAMPAIGN_CELL, walk_cycles=5.5e4 + 1)
        run = self.run_with([CAMPAIGN_CELL, CAMPAIGN_CELL, drifted])
        attempted, failed, problems = aggregate.verify(run)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("disagrees", problems[0])

    def test_pinned_digest(self):
        run = self.run_with([CAMPAIGN_CELL] * 2)
        pinned = aggregate.pinned_digests(run)
        self.assertEqual(aggregate.verify(run, pinned=pinned)[1], 0)
        perturbed = self.run_with([CAMPAIGN_CELL] * 2,
                                  counters={"tlb.l1d.hits": 6})
        self.assertEqual(aggregate.verify(perturbed, pinned=pinned)[1], 2)

    def test_other_trace_mode_must_agree(self):
        traced = self.run_with([CAMPAIGN_CELL] * 2)
        sibling = aggregate.pinned_digests(self.run_with(
            [dict(CAMPAIGN_CELL, seq_refs=1)]))
        self.assertEqual(aggregate.verify(traced, sibling=sibling)[1], 2)
        self.assertEqual(aggregate.verify(traced, sibling={})[1], 0)

    def test_checked_in_references_cover_the_pinned_workloads(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
        self.assertEqual(sorted(ref), ["loop-thp", "node-flush"])
        self.assertEqual(len(ref["loop-thp"]), 6)
        self.assertEqual(len(ref["node-flush"]), 2)


if __name__ == "__main__":
    unittest.main()
