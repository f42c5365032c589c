"""Statistics helpers of the repository benchmark (see run.py).

Kept free of I/O so test_perfstats.py can pin their behaviour:

* percentile() refuses a percentile that has fewer than ten samples beyond
  it, so a reported tail always rests on at least ten observations;
* self_times() gives each span's duration minus the part of its interval
  that its child spans cover;
* layer_medians() and residual() turn span trees into per-layer medians and
  the share of a request no layer span accounts for.
"""

import math
import statistics

MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def percentile(values, p):
    """Nearest-rank p-quantile (0 < p < 1) of values.

    Failed requests belong in values as math.inf, so they count as misses.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile {p} outside (0, 1)")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{p * 100:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {MIN_BEYOND}")
    return ordered[rank - 1]


def median(values):
    if not values:
        raise NotEnoughSamples("median of no samples")
    return statistics.median(values)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> self time for spans given as dicts with keys
    id, parent, start, end (parent 0 = root)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_medians(spans):
    """Per span name, the median over trees of that tree's summed self time.

    A tree is one request (or one replayed call); a name absent from a tree
    does not count as a zero for it.
    """
    own = self_times(spans)
    per_tree = {}
    for s in spans:
        key = (s["name"], s["tree"])
        per_tree[key] = per_tree.get(key, 0) + own[s["id"]]
    by_name = {}
    for (name, _), t in per_tree.items():
        by_name.setdefault(name, []).append(t)
    return {name: median(ts) for name, ts in by_name.items()}


def leaf_names(spans, root_name):
    """Names of spans without children inside trees rooted at root_name."""
    roots = {s["tree"] for s in spans if s["parent"] == 0 and s["name"] == root_name}
    parents = {s["parent"] for s in spans}
    return {s["name"] for s in spans
            if s["tree"] in roots and s["parent"] and s["id"] not in parents}


def residual(root_median, child_medians):
    """End-to-end median minus the medians of the child spans."""
    return root_median - sum(child_medians)
