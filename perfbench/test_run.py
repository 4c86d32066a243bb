"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The span self-time and percentile arithmetic of the tracer is
tested in Rust: `cargo test --manifest-path perfbench/tracer/Cargo.toml`.
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5, 13.5]
        q1, med, q3, share = run.quartile_spread(values)
        expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (expected_q1, expected_q3))
        self.assertEqual(med, 11.75)
        self.assertAlmostEqual(share, (expected_q3 - expected_q1) / 11.75)

    def test_exclusive_quartiles_of_five(self):
        # The exclusive method puts q1 halfway between the 1st and 2nd
        # order statistics of five values, q3 between the 4th and 5th.
        q1, med, q3, share = run.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(share, 1.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.quartile_spread([4.0]), (4.0, 4.0, 4.0, 0.0))

    def test_zero_median_reports_zero_spread(self):
        self.assertEqual(run.quartile_spread([0.0, 0.0, 0.0])[3], 0.0)

    def test_order_does_not_matter(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        self.assertEqual(run.quartile_spread(values), run.quartile_spread(sorted(values)))


class FailedShare(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(run.failed_share(200, 50), 0.25)
        self.assertEqual(run.failed_share(0, 0), 0.0)


class Summarize(unittest.TestCase):
    def test_reports_medians_with_their_spread(self):
        metrics, spreads = {}, {}
        run.summarize({"records_per_s": [3.0, 1.0, 2.0]}, metrics, spreads)
        self.assertEqual(metrics, {"records_per_s": 2.0})
        self.assertEqual(spreads["records_per_s"]["n"], 3)
        self.assertEqual(spreads["records_per_s"]["median"], 2.0)


class Spec(unittest.TestCase):
    def test_runs_the_workloads_benchmark_json_names(self):
        with open(run.SPEC) as f:
            named = {w["name"] for w in json.load(f)["workloads"]}
        self.assertEqual(set(run.SIZES), named)
        self.assertEqual(set(run.SETUPS), named)
        self.assertEqual(set(run.TIMED), named)
        self.assertEqual(set(run.TRACED), named)
        self.assertEqual(set(run.NOT_ON_PATH), named)

    def test_reads_metric_units_from_benchmark_json(self):
        self.assertEqual(run.metric_units("end_to_end")["setup_s"], "s")
        self.assertEqual(run.metric_units("per_layer")["netsim.cache_hit_ratio"], "ratio")


if __name__ == "__main__":
    unittest.main()
