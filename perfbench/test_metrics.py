"""Tests of the benchmark's metric helpers.

  python3 perfbench/test_metrics.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 999 samples leave 9 beyond the 99th percentile: not reportable.
        self.assertIsNone(metrics.tail_percentile(list(range(999)), 0.99))
        # 1000 samples leave exactly 10 (rank 990 of 1000).
        self.assertEqual(metrics.tail_percentile(list(range(1000)), 0.99),
                         989)

    def test_never_the_maximum(self):
        # A small run (16 requests) has no p99 at all, instead of max.
        self.assertIsNone(metrics.tail_percentile([1.0] * 15 + [50.0], 0.99))
        for n in range(1, 3000, 37):
            samples = list(range(n))
            value = metrics.tail_percentile(samples, 0.99)
            if value is not None:
                self.assertLess(value, max(samples))
                self.assertGreaterEqual(
                    sum(1 for s in samples if s > value), 10)

    def test_order_does_not_matter(self):
        samples = [float((i * 7919) % 2000) for i in range(2000)]
        self.assertEqual(metrics.tail_percentile(samples, 0.99),
                         metrics.tail_percentile(sorted(samples), 0.99))

    def test_empty(self):
        self.assertIsNone(metrics.tail_percentile([], 0.5))


class FailureAccountingTest(unittest.TestCase):
    def test_failures_miss_the_slo_and_count_as_errors(self):
        latencies = [1.0, 1.0, 1.0, 1.0, 1.0, 99.0]
        codes = [metrics.OK, metrics.HTTP_ERROR, metrics.TRANSPORT,
                 metrics.STATUS_ERROR, metrics.IDENTITY, metrics.OK]
        # Refusals (429), 5xx, transport failures, non-OK statuses and
        # identity violations are fast here but still misses; the slow
        # success misses too. Only the first operation meets the limit.
        self.assertAlmostEqual(metrics.slo_share(latencies, codes, 10.0),
                               1 / 6)
        self.assertAlmostEqual(metrics.error_share(codes), 4 / 6)

    def test_all_good(self):
        self.assertEqual(metrics.slo_share([1.0, 2.0], [0, 0], 2.0), 1.0)
        self.assertEqual(metrics.error_share([0, 0]), 0.0)

    def test_end_to_end_counts_failures_against_attempts(self):
        n = 2000
        raw = {
            "kind": "http",
            "timed": {
                "ops": {"latency_ms": [5.0] * n, "code": [0] * (n - 100)
                        + [metrics.HTTP_ERROR] * 100,
                        "bytes": [10] * n,
                        "end_ms": [5.0 * i for i in range(n)]},
                "cpu_samples": [[0.0, 0.0], [10000.0, 4.0]],
                "peak_rss_kb": [2048, 9000, 1024],
                "setup_s": [0.3, 0.1, 0.2],
            },
        }
        values, extra = metrics.end_to_end(raw, limit_ms=10.0)
        self.assertAlmostEqual(values["slo_share"][0], 0.95)
        self.assertAlmostEqual(values["success_share"][0], 0.95)
        self.assertAlmostEqual(extra["error_share"], 0.05)
        # The failures all end in the last window; the median window
        # holds 200 successes a second.
        self.assertAlmostEqual(values["ops_per_s"][0], 200.0)
        self.assertAlmostEqual(values["cpu_ms_per_op"][0], 2.0)
        self.assertAlmostEqual(values["setup_s"][0], 0.2)
        self.assertAlmostEqual(values["peak_rss_mb"][0], 2.0)

    def test_end_to_end_refuses_a_run_that_ran_out_of_schedule(self):
        raw = {"kind": "stream", "timed": {
            "schedule_exhausted": True, "journal_bytes": 10,
            "ops": {"latency_ms": [1.0] * 50, "code": [0] * 50,
                    "bytes": [0] * 50,
                    "end_ms": [20.0 * i for i in range(50)]},
            "cpu_samples": [[0.0, 0.0], [1000.0, 1.0]],
            "peak_rss_kb": [1], "setup_s": [1.0]}}
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw, limit_ms=10.0)
        raw["timed"]["schedule_exhausted"] = False
        values, _ = metrics.end_to_end(raw, limit_ms=10.0)
        self.assertAlmostEqual(values["bytes_per_op"][0], 0.2)

    def test_end_to_end_reports_no_short_tail(self):
        raw = {"kind": "http", "timed": {
            "ops": {"latency_ms": [1.0] * 50, "code": [0] * 50,
                    "bytes": [1] * 50,
                    "end_ms": [20.0 * i for i in range(50)]},
            "cpu_samples": [[0.0, 0.0], [1000.0, 1.0]],
            "peak_rss_kb": [1], "setup_s": [1.0]}}
        _, extra = metrics.end_to_end(raw, limit_ms=10.0)
        self.assertNotEqual(extra["p99_ms"], extra["p99_ms"])  # NaN


class MiddleMeanTest(unittest.TestCase):
    def test_leaves_out_the_outer_quarters(self):
        self.assertAlmostEqual(metrics.middle_mean([9.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertAlmostEqual(metrics.middle_mean([0.2]), 0.2)

    def test_follows_the_share_of_two_levels(self):
        # A median of 15 jumps from 1 to 2 when 8 of 15 values are slow;
        # the middle mean moves by one value's worth.
        seven = [1.0] * 8 + [2.0] * 7
        eight = [1.0] * 7 + [2.0] * 8
        self.assertEqual(statistics.median(seven), 1.0)
        self.assertEqual(statistics.median(eight), 2.0)
        self.assertAlmostEqual(metrics.middle_mean(seven), 13 / 9)
        self.assertAlmostEqual(metrics.middle_mean(eight), 14 / 9)


class WindowTest(unittest.TestCase):
    @staticmethod
    def phase(latency_of_window, cpu_per_op_of_window, per_window=100):
        """A 10-second phase of 10 one-second windows, `per_window`
        operations in each, evenly spaced."""
        ops = {"latency_ms": [], "code": [], "end_ms": []}
        samples = [[0.0, 0.0]]
        for k in range(10):
            for i in range(per_window):
                ops["latency_ms"].append(latency_of_window(k))
                ops["code"].append(metrics.OK)
                ops["end_ms"].append(1000.0 * k + 1000.0 * i / per_window)
            samples.append([1000.0 * (k + 1), samples[-1][1]
                            + cpu_per_op_of_window(k) * per_window / 1000.0])
        return ops, samples

    def test_a_burst_in_few_windows_does_not_move_the_median(self):
        ops, samples = self.phase(lambda k: 50.0 if k in (2, 3) else 5.0,
                                  lambda k: 9.0 if k in (2, 3) else 2.0)
        per_window = metrics.windows(ops, samples)
        self.assertEqual(len(per_window), 10)
        self.assertEqual(statistics.median(w["p50_ms"] for w in per_window),
                         5.0)
        self.assertAlmostEqual(
            statistics.median(w["cpu_ms_per_op"] for w in per_window), 2.0)
        self.assertAlmostEqual(
            statistics.median(w["ops_per_s"] for w in per_window), 100.0)

    def test_failures_are_attempts_but_not_throughput(self):
        ops, samples = self.phase(lambda k: 1.0, lambda k: 1.0)
        ops["code"] = [metrics.TRANSPORT if i % 4 == 0 else metrics.OK
                       for i in range(len(ops["code"]))]
        w = metrics.windows(ops, samples)[0]
        self.assertAlmostEqual(w["ops_per_s"], 75.0)
        self.assertAlmostEqual(w["cpu_ms_per_op"], 1.0)

    def test_a_window_without_successes_reads_as_slow(self):
        ops, samples = self.phase(lambda k: 1.0, lambda k: 1.0)
        ops["code"] = [metrics.HTTP_ERROR if e < 1000.0 else metrics.OK
                       for e in ops["end_ms"]]
        w = metrics.windows(ops, samples)[0]
        self.assertEqual(w["p50_ms"], float("inf"))
        self.assertEqual(w["ops_per_s"], 0.0)


class MetricNameTest(unittest.TestCase):
    def test_pattern(self):
        for good in ("p50_ms", "codec.encode_ms", "net.rtt-ms", "A9"):
            self.assertTrue(metrics.valid_metric_name(good), good)
        for bad in ("", "p50 ms", "bytes/op", "rtt(ms)", "a" * 65):
            self.assertFalse(metrics.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(metrics.spread([10.0] * 10), 0.0)
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        self.assertGreater(metrics.spread(values), 0.0)


if __name__ == "__main__":
    unittest.main()
