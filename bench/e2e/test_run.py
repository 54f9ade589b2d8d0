#!/usr/bin/env python3
"""Unit tests of the end-to-end benchmark's runner (run.py).

  python3 bench/e2e/test_run.py

Covers the statistics the runner reports (the percentile rule, medians
and quartiles, bound evaluation), the metric-name rules, and the
two-way consistency between BENCHMARK.json, run.py's metric table and
what e2e_bench.cc prints. Needs no build.
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 0.99), 990)
        with self.assertRaises(run.BenchError):
            run.percentile(values[:999], 0.99)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(19)), 0.5)

    def test_p05_needs_ten_samples_below_it(self):
        values = list(range(1, 221))
        self.assertEqual(run.percentile(values, 0.05), 11)
        with self.assertRaises(run.BenchError):
            run.percentile(values[:200], 0.05)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(run.percentile(values, 0.5), 3.0)

    def test_empty_series_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.percentile([], 0.5)


class MediansAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(run.BenchError):
            run.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 10.5, 11.5, 12.5, 14.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(run.spread([7.0] * 10), 0.0)
        self.assertEqual(run.spread([0.0] * 10), 0.0)


class Bounds(unittest.TestCase):
    LOWER = {"name": "latency_p05_ms", "better": "lower", "bound": 0.1}
    HIGHER = {"name": "recall_at_10", "better": "higher", "bound": 0.1}

    def test_lower_is_better(self):
        self.assertTrue(run.within_bound(self.LOWER, 10.0, 10.99))
        self.assertFalse(run.within_bound(self.LOWER, 10.0, 11.01))
        self.assertTrue(run.within_bound(self.LOWER, 10.0, 5.0))

    def test_higher_is_better(self):
        self.assertTrue(run.within_bound(self.HIGHER, 100.0, 90.5))
        self.assertFalse(run.within_bound(self.HIGHER, 100.0, 89.5))
        self.assertTrue(run.within_bound(self.HIGHER, 100.0, 200.0))

    def test_worsening_sign(self):
        self.assertAlmostEqual(run.worsening("lower", 10.0, 12.0), 0.2)
        self.assertAlmostEqual(run.worsening("higher", 10.0, 12.0), -0.2)

    def test_repeatability_flags_moved_median_and_changed_count(self):
        declared = [dict(self.LOWER, unit="ms"),
                    {"name": "recall_at_10", "unit": "ratio",
                     "better": "higher", "bound": 0.01}]
        first = [{"latency_p05_ms": 10.0, "recall_at_10": 0.99}] * 5
        same = run.compare_sets("w", first, first, declared, trace=False)
        self.assertEqual(same, [])
        slower = [{"latency_p05_ms": 12.0, "recall_at_10": 0.99}] * 5
        self.assertEqual(len(run.compare_sets("w", first, slower, declared,
                                              trace=False)), 1)
        drifted = [{"latency_p05_ms": 10.0, "recall_at_10": 0.991}] * 5
        self.assertEqual(len(run.compare_sets("w", first, drifted, declared,
                                              trace=False)), 1)


class Names(unittest.TestCase):
    def test_name_regex(self):
        self.assertRegex("serving.search_ms_p50", run.NAME_RE)
        self.assertNotRegex("latency ms", run.NAME_RE)
        self.assertNotRegex("qps/s", run.NAME_RE)
        self.assertEqual(run.NAME_RE.pattern, r"^[A-Za-z0-9_.-]+$")

    def test_valid_name(self):
        self.assertTrue(run.valid_name("index.shard_ms_p99"))
        self.assertFalse(run.valid_name(".hidden"))
        self.assertFalse(run.valid_name("x" * 65))
        self.assertFalse(run.valid_name("bad name"))


SOURCE = Path(run.__file__).resolve().parent / "e2e_bench.cc"


def printed_keys(pattern):
    return set(re.findall(pattern, SOURCE.read_text()))


class Consistency(unittest.TestCase):
    """Every metric the benchmark prints is declared in BENCHMARK.json,
    and every declared metric is printed."""

    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def test_benchmark_json_is_valid(self):
        spec = self.spec
        self.assertEqual(spec["command"][:2], ["python3", "bench/e2e/run.py"])
        for path in spec["paths"]:
            self.assertTrue((run.ROOT / path).is_dir(), path)
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_declared_metrics_match_the_runner_table(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_binary_prints_exactly_the_declared_values(self):
        values = printed_keys(r'\bv(?:alues)?\["([^"]+)"\]')
        wanted = {name for table in (run.END_TO_END, run.PER_LAYER)
                  for name, rule in table.items() if rule[0] == "value"}
        self.assertEqual(values, wanted)

    def test_binary_prints_every_series_a_metric_reads(self):
        series = printed_keys(r'series\["([^"]+)"\]')
        read = {source for table in (run.END_TO_END, run.PER_LAYER)
                for rule in table.values() for source in rule[1:]}
        self.assertEqual(read, series)

    def test_rules_compute_every_declared_metric(self):
        n = 1000
        doc = {"values": {}, "series": {}}
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, rule in table.items():
                if rule[0] == "value":
                    doc["values"][name] = 1.0
                for source in rule[1:]:
                    doc["series"][source] = [float(i + 1) for i in range(n)]
        for trace in (False, True):
            declared, rules = run.declared_metrics(self.spec, trace)
            metrics = run.metrics_of(doc, declared, rules)
            self.assertEqual(list(metrics), [m["name"] for m in declared])

    def test_result_line_has_exactly_the_documented_keys(self):
        declared = self.spec["end_to_end"]
        doc = {"failures": {}, "attempted": 3, "failed": 0}
        metrics = {m["name"]: 1.5 for m in declared}
        line = json.loads(run.result_line([doc], {"w": metrics}, declared))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        for m in declared:
            self.assertEqual(line["metrics"][m["name"]],
                             {"value": 1.5, "unit": m["unit"]})

    def test_validation_rejects_a_broken_spec(self):
        broken = json.loads(json.dumps(self.spec))
        broken["end_to_end"][0]["bound"] = 0.5
        with self.assertRaises(run.BenchError):
            run.validate_spec(broken)
        broken = json.loads(json.dumps(self.spec))
        broken["per_layer"].append(dict(broken["per_layer"][0]))
        with self.assertRaises(run.BenchError):
            run.validate_spec(broken)
        broken = json.loads(json.dumps(self.spec))
        broken["end_to_end"] = [m for m in broken["end_to_end"]
                                if m["name"] != "setup_s"]
        with self.assertRaises(run.BenchError):
            run.validate_spec(broken)


if __name__ == "__main__":
    unittest.main()
