"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, name="s", tree=1):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "tree": tree}


class PercentileTest(unittest.TestCase):
    def test_p90_of_100_rests_on_ten_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(perfstats.percentile(values, 0.9), 90)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(perfstats.NotEnoughSamples):
            perfstats.percentile(list(range(99)), 0.9)
        with self.assertRaises(perfstats.NotEnoughSamples):
            perfstats.percentile(list(range(19)), 0.5)
        self.assertEqual(perfstats.percentile(list(range(20)), 0.5), 9)

    def test_failures_count_as_misses(self):
        values = [1.0] * 85 + [math.inf] * 15
        self.assertEqual(perfstats.percentile(values, 0.9), math.inf)

    def test_order_does_not_matter(self):
        values = [5, 3, 9, 1, 7] * 20
        self.assertEqual(perfstats.percentile(values, 0.9),
                         perfstats.percentile(sorted(values), 0.9))

    def test_rejects_p_outside_unit_interval(self):
        with self.assertRaises(ValueError):
            perfstats.percentile(list(range(200)), 1.0)

    def test_median_refuses_nothing(self):
        with self.assertRaises(perfstats.NotEnoughSamples):
            perfstats.median([])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(perfstats.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 9)]
        self.assertEqual(perfstats.self_times(spans)[1], 10 - 2 - 4)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 6), span(3, 1, 4, 8)]
        self.assertEqual(perfstats.self_times(spans)[1], 10 - 7)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 2, 10), span(2, 1, 0, 4), span(3, 1, 9, 12)]
        self.assertEqual(perfstats.self_times(spans)[1], 8 - 2 - 1)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 0, 6), span(3, 2, 1, 5)]
        own = perfstats.self_times(spans)
        self.assertEqual(own, {1: 4, 2: 2, 3: 4})


class LayerAndResidualTest(unittest.TestCase):
    def request(self, tree, base, enc, ser, gap):
        # request -> upload -> (encode, serialize) with a gap no span covers.
        ids = [tree * 10 + k for k in range(4)]
        end = base + enc + ser + gap
        return [
            span(ids[0], 0, base, end, "request", tree),
            span(ids[1], ids[0], base, base + enc + ser, "upload", tree),
            span(ids[2], ids[1], base, base + enc, "encode", tree),
            span(ids[3], ids[1], base + enc, base + enc + ser, "serialize",
                 tree),
        ]

    def test_layer_medians_sum_repeated_spans_per_tree(self):
        spans = [span(1, 0, 0, 10, "request"), span(2, 1, 0, 2, "ser"),
                 span(3, 1, 5, 8, "ser")]
        self.assertEqual(perfstats.layer_medians(spans)["ser"], 5)

    def test_residual_is_root_median_minus_child_medians(self):
        spans = (self.request(1, 0, 4, 2, 1) + self.request(2, 100, 6, 2, 1)
                 + self.request(3, 200, 5, 2, 1))
        layers = perfstats.layer_medians(spans)
        leaves = perfstats.leaf_names(spans, "request")
        self.assertEqual(leaves, {"encode", "serialize"})
        roots = [s["end"] - s["start"] for s in spans if s["parent"] == 0]
        res = perfstats.residual(perfstats.median(roots),
                                 [layers[n] for n in leaves])
        self.assertEqual(res, 8 - 5 - 2)

    def test_leaf_names_ignore_other_trees(self):
        spans = self.request(1, 0, 4, 2, 1) + [span(99, 0, 0, 3, "replay", 7)]
        self.assertNotIn("replay", perfstats.leaf_names(spans, "request"))


class CatalogTest(unittest.TestCase):
    def test_run_prints_exactly_the_declared_metrics(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
