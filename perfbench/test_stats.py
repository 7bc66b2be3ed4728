"""Tests for the benchmark's statistics code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.50), 50)
        self.assertEqual(stats.percentile(values, 0.95), 95)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.95), 7)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_beyond_counts_samples_past_the_rank(self):
        self.assertEqual(stats.beyond(100, 0.95), 5)
        self.assertEqual(stats.beyond(200, 0.95), 10)
        self.assertEqual(stats.beyond(199, 0.95), 9)

    def test_p95_needs_ten_samples_beyond(self):
        self.assertEqual(stats.checked_percentile(list(range(200)), 0.95),
                         189)
        with self.assertRaises(ValueError):
            stats.checked_percentile(list(range(199)), 0.95)

    def test_median_or_zero(self):
        self.assertEqual(stats.median_or_zero([]), 0.0)
        self.assertEqual(stats.median_or_zero([1, 3]), 2)


class IntervalTest(unittest.TestCase):
    def test_union_merges_overlaps_and_nesting(self):
        self.assertEqual(stats.union_length([(0, 10), (5, 15), (6, 7)]), 15)

    def test_union_adds_disjoint_and_touching(self):
        self.assertEqual(stats.union_length([(20, 30), (0, 10), (10, 12)]),
                         22)

    def test_union_ignores_empty_intervals(self):
        self.assertEqual(stats.union_length([(5, 5), (9, 3)]), 0)
        self.assertEqual(stats.union_length([]), 0)

    def test_union_clipped_to_window_gives_busy_share(self):
        # Two requests of one batch share a dispatch interval; a third
        # straddles the window's end.
        dispatch = [(10, 40), (10, 40), (60, 120)]
        busy = stats.union_length(dispatch, window=(0, 100))
        self.assertEqual(busy, 70)
        self.assertAlmostEqual(busy / 100, 0.7)

    def test_self_time_subtracts_covered_part_only(self):
        span = (100, 200)
        children = [(90, 120), (150, 160), (155, 170), (190, 230)]
        # Covered inside the span: 20 + 20 + 10 = 50.
        self.assertEqual(stats.self_time(span, children), 50)
        self.assertEqual(stats.self_time(span, []), 100)
        self.assertEqual(stats.self_time(span, [(0, 300)]), 0)

    def test_attribute_by_overlap(self):
        dispatch = [(0, 10), (0, 10), (20, 30), (40, 50)]
        engine = [(22, 28), (2, 8)]
        owned = stats.attribute(dispatch, engine)
        self.assertEqual(owned, [[(2, 8)], [(2, 8)], [(22, 28)], []])

    def test_attribute_excludes_touching_intervals(self):
        owned = stats.attribute([(10, 20)], [(0, 10), (20, 30), (12, 14)])
        self.assertEqual(owned, [[(12, 14)]])


class CacheDeltaTest(unittest.TestCase):
    def snapshot(self, **values):
        base = dict.fromkeys(stats.CACHE_FIELDS, 0)
        base.update(values)
        return base

    def test_counters_subtract_and_resident_is_a_level(self):
        before = self.snapshot(hits=10, misses=5, inserts=5, evictions=1,
                               invalidations=2, rejections=0,
                               resident_bytes=800)
        after = self.snapshot(hits=40, misses=15, inserts=15, evictions=4,
                              invalidations=7, rejections=1,
                              resident_bytes=500)
        delta = stats.cache_delta(before, after)
        self.assertEqual(delta["hits"], 30)
        self.assertEqual(delta["misses"], 10)
        self.assertEqual(delta["evictions"], 3)
        self.assertEqual(delta["invalidations"], 5)
        self.assertEqual(delta["rejections"], 1)
        self.assertEqual(delta["resident_bytes"], 500)
        self.assertAlmostEqual(delta["hit_rate"], 0.75)

    def test_no_lookups_gives_zero_hit_rate(self):
        snap = self.snapshot(hits=3, misses=1)
        self.assertEqual(stats.cache_delta(snap, snap)["hit_rate"], 0.0)


if __name__ == "__main__":
    unittest.main()
