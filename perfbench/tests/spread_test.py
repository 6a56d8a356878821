#!/usr/bin/env python3
"""Unit tests of the run-to-run spread steadiness.py computes.

    python3 perfbench/tests/spread_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from steadiness import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread(range(1, 11)), (8.25 - 2.75) / 5.5)
        # statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        self.assertAlmostEqual(spread([8, 1, 4, 2]), (7.0 - 1.25) / 3.0)

    def test_order_does_not_matter(self):
        self.assertEqual(spread([3, 9, 1, 7, 5]), spread([1, 3, 5, 7, 9]))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_scale_free(self):
        values = [1.1, 0.9, 1.3, 1.0, 1.2, 0.95, 1.05, 1.15, 0.85, 1.25]
        self.assertAlmostEqual(spread([v * 1000 for v in values]),
                               spread(values))

    def test_outliers_beyond_the_quartiles_do_not_count(self):
        base = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
        wild = [1.0] + base[1:-1] + [1000.0]
        self.assertAlmostEqual(spread(wild), spread(base), delta=0.01)

    def test_zero_median_is_infinite(self):
        self.assertEqual(spread([-1.0, 0.0, 0.0, 0.0, 1.0]), float("inf"))


if __name__ == "__main__":
    unittest.main()
