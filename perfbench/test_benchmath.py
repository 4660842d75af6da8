#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic (benchmath.py).

    python3 perfbench/test_benchmath.py
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchmath  # noqa: E402


class ProbeNearTest(unittest.TestCase):
    def test_median_of_the_probes_near_the_interval(self):
        at = [0.2, 0.4, 0.6, 2.0, 2.2, 5.0]
        ms = [5.0, 6.0, 7.0, 9.0, 11.0, 100.0]
        # Within 1 s of [0.5, 0.9]: the first three probes.
        self.assertEqual(benchmath.probe_near(at, ms, 0.5, 0.9, 1.0), 6.0)
        # Within 1 s of [1.5, 1.6]: 0.6, 2.0 and 2.2.
        self.assertEqual(benchmath.probe_near(at, ms, 1.5, 1.6, 1.0), 9.0)
        # A long interval takes every probe it spans.
        self.assertEqual(benchmath.probe_near(at, ms, 0.0, 6.0, 0.0), 8.0)

    def test_no_probe_near_falls_back_to_all(self):
        at = [0.2, 0.4, 10.0]
        ms = [5.0, 7.0, 9.0]
        self.assertEqual(benchmath.probe_near(at, ms, 4.0, 5.0, 1.0), 7.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000, shuffled order irrelevant
        values.reverse()
        self.assertEqual(benchmath.percentile(values, 99), (990, 10))
        self.assertEqual(benchmath.percentile(values, 50), (500, 500))
        self.assertEqual(benchmath.percentile(values, 100), (1000, 0))

    def test_p99_needs_a_thousand_samples_for_ten_beyond(self):
        _, beyond = benchmath.percentile([1.0] * 999, 99)
        self.assertEqual(beyond, 9)
        _, beyond = benchmath.percentile([1.0] * 1000, 99)
        self.assertGreaterEqual(beyond, 10)

    def test_mega_tail_percentile(self):
        # Mega's tail is p75 over the smallest class: 40 samples leave ten
        # beyond it.
        value, beyond = benchmath.percentile([float(i) for i in range(40)], 75)
        self.assertEqual((value, beyond), (29.0, 10))

    def test_small_inputs(self):
        self.assertEqual(benchmath.percentile([7.0], 99), (7.0, 0))
        with self.assertRaises(ValueError):
            benchmath.percentile([], 50)


class SlopeTest(unittest.TestCase):
    def test_exact_power_law(self):
        sizes = [1216, 2520, 4989, 10042]
        for k in (1.0, 1.5, 2.0):
            points = [(n, 3.0 * n ** k) for n in sizes]
            self.assertAlmostEqual(benchmath.loglog_slope(points), k, 9)

    def test_least_squares_through_noise(self):
        # log y = 1 + 2 log x, residuals +e, -e, -e, +e cancel in the slope.
        e = 0.1
        xs = [1.0, 2.0, 3.0, 4.0]
        resid = [e, -e, -e, e]
        points = [(math.exp(x), math.exp(1 + 2 * x + r))
                  for x, r in zip(xs, resid)]
        self.assertAlmostEqual(benchmath.loglog_slope(points), 2.0, 9)

    def test_degenerate(self):
        with self.assertRaises(ValueError):
            benchmath.loglog_slope([(10, 1.0)])
        with self.assertRaises(ValueError):
            benchmath.loglog_slope([(10, 1.0), (10, 2.0)])


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [
            ("item", 0.0, 100.0, -1, 0),
            ("a", 10.0, 30.0, 0, 0),
            ("b", 40.0, 90.0, 0, 0),
            ("c", 50.0, 60.0, 2, 0),
        ]
        self.assertEqual(benchmath.self_times(spans), [30.0, 20.0, 40.0, 10.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("x", 2.0, 6.0, 0, 0),
            ("y", 4.0, 8.0, 0, 0),   # overlaps x on [4, 6]
            ("z", 9.0, 12.0, 0, 0),  # runs past its parent's end
        ]
        self.assertEqual(benchmath.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_layer_table_sums_close(self):
        spans = [
            ("item", 0.0, 100.0, -1, 0),
            ("regalloc.alloc", 5.0, 80.0, 0, 0),
            ("regalloc.checker", 80.0, 95.0, 0, 0),
            ("replay", 200.0, 260.0, -1, 0),
            ("core.cpg", 210.0, 250.0, 3, 0),
        ]
        table = benchmath.layer_table(spans)
        self.assertEqual(table["other"]["self"], 10.0 + 20.0)
        self.assertEqual(table["other"]["count"], 2)
        total = sum(row["self"] for row in table.values())
        self.assertEqual(total, 100.0 + 60.0)


class HttpPlaneTest(unittest.TestCase):
    def test_parse_requests(self):
        doc = {"recorded": 3, "capacity": 128, "requests": [
            {"id": 3, "kind": "http", "peer": "127.0.0.1:5", "target":
             "/requests", "status": "200", "bytes-in": 40, "bytes-out": 0,
             "queue-us": 0, "wall-us": 12, "detail": ""},
            {"id": 2, "kind": "alloc", "peer": "127.0.0.1:4", "target":
             "full-preferences", "status": "ok", "bytes-in": 9000,
             "bytes-out": 700, "queue-us": 1500, "wall-us": 4200,
             "detail": ""},
        ]}
        recs = benchmath.parse_requests(json.dumps(doc))
        self.assertEqual(len(recs), 2)
        self.assertEqual(recs[1]["kind"], "alloc")
        self.assertEqual(recs[1]["queue_us"], 1500)
        self.assertEqual(recs[1]["wall_us"] - recs[1]["queue_us"], 2700)
        self.assertEqual(recs[0]["bytes_in"], 40)

    def test_parse_stat_counters(self):
        text = ("# HELP pdgc_stat_total Process-wide PDGC_STAT counters.\n"
                "# TYPE pdgc_stat_total counter\n"
                'pdgc_stat_total{stat="worker.spawns"} 2\n'
                'pdgc_stat_total{stat="fallback.degraded_allocations"} 0\n'
                'pdgc_timer_count_total{timer="x"} 5\n')
        self.assertEqual(benchmath.parse_stat_counters(text),
                         {"worker.spawns": 2,
                          "fallback.degraded_allocations": 0})


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3, spread = benchmath.spread([10, 11, 9, 10, 12, 8, 10, 10,
                                                11, 9])
        self.assertEqual(med, 10)
        self.assertAlmostEqual(spread, (q3 - q1) / 10)


if __name__ == "__main__":
    unittest.main()
