"""Tests of the benchmark's statistics and digest helpers.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchstats as bs  # noqa: E402


class Quantiles(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [0.71, 0.93, 0.57, 0.62, 0.66, 0.70, 0.88, 0.59, 0.64, 0.75]
        q1, q2, q3 = bs.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_single_sample_has_no_spread(self):
        self.assertEqual(bs.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(bs.spread([5.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / 3.0)

    def test_spread_of_constant_samples_is_zero(self):
        self.assertEqual(bs.spread([2.0] * 6), 0.0)

    def test_percentile_interpolates_inclusively(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(bs.percentile(values, 50), 50.5)
        self.assertAlmostEqual(bs.percentile(values, 95), 95.05)
        self.assertEqual(bs.percentile([7.0], 95), 7.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.tail_percentile(10))
        self.assertIsNone(bs.tail_percentile(19))
        self.assertEqual(bs.tail_percentile(20), 50)
        self.assertEqual(bs.tail_percentile(50), 80)
        self.assertEqual(bs.tail_percentile(100), 90)
        self.assertEqual(bs.tail_percentile(1000), 99)
        self.assertEqual(bs.tail_percentile(100000), 99)

    def test_leaves_at_least_ten_samples_beyond(self):
        for n in range(20, 400):
            p = bs.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100.0, 10.0, n)
            if p < 99:
                self.assertLess(n * (100 - (p + 1)) / 100.0, 10.0, n)


class Digest(unittest.TestCase):
    ROW = ("4,10,10,1.5,2614,1742.66666667,1742.48938435,0.950631378172,"
           "events=263743")

    def test_digest_is_pinned(self):
        # A change here invalidates every stored reference digest.
        self.assertEqual(bs.row_digest(self.ROW), "dfe035263ad06205")

    def test_digest_is_stable_and_sensitive(self):
        self.assertEqual(bs.row_digest(self.ROW), bs.row_digest(self.ROW))
        self.assertNotEqual(bs.row_digest(self.ROW),
                            bs.row_digest(self.ROW.replace("2614", "2615")))
        self.assertNotEqual(bs.row_digest(self.ROW),
                            bs.row_digest(self.ROW + "\n"))

    def test_reference_file_covers_every_workload(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "reference_digests.json")) as f:
            ref = json.load(f)
        rows = {"cached_point": 1, "scale_100x": 1, "scale_100x_1p": 1,
                "xeon_study": 36}
        self.assertEqual(sorted(ref), sorted(rows))
        for workload, seeds in ref.items():
            self.assertIn("42", seeds)
            self.assertGreaterEqual(len(seeds), 2)
            for digests in seeds.values():
                self.assertEqual(len(digests), rows[workload])
                for d in digests:
                    self.assertRegex(d, r"^[0-9a-f]{16}$")


if __name__ == "__main__":
    unittest.main()
