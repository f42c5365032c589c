#!/usr/bin/env python3
"""Validates an Op::kStats scrape written by `serve_clients --stats-json`.

The scrape is the operator-facing contract of the obs subsystem, so CI
fails the build when it regresses:

 * the payload must parse as JSON with the expected top-level shape
   (counters, gauges, histograms, histogram_layout, traces);
 * every name in the metric catalog (obs::catalog::kAll, read from
   src/obs/metrics.hpp itself) must be present in its kind's section — a
   subsystem that silently stops exporting fails here, not in a dashboard
   weeks later;
 * the histogram layout must match the compiled-in log2 boundaries;
 * the admission/latency path must have left real data:
   server.accepted > 0 and populated queue-wait and end-to-end
   histograms whose bucket sums equal their counts.

Usage: python3 tools/check_stats_scrape.py STATS_server.json
"""

import json
import re
import sys
from pathlib import Path

CATALOG_HEADER = Path(__file__).resolve().parent.parent / "src/obs/metrics.hpp"

# `inline constexpr const char* kName = "metric.name";`, possibly wrapped.
_NAME_RE = re.compile(
    r'inline\s+constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"\s*;')
# `{kName, Kind::kCounter},` inside kAll.
_ENTRY_RE = re.compile(
    r"\{\s*(k\w+)\s*,\s*Kind::k(Counter|Gauge|Histogram)\s*\}")


def load_catalog(header=CATALOG_HEADER):
    """Returns obs::catalog::kAll as a list of (name, kind) pairs in order,
    kind one of "counter", "gauge", "histogram", read from the header."""
    text = Path(header).read_text(encoding="utf-8")
    names = dict(_NAME_RE.findall(text))
    start = text.find("kAll[] = {")
    if start < 0:
        raise ValueError(f"no catalog::kAll in {header}")
    body = text[start:text.index("};", start)]
    entries = []
    for const, kind in _ENTRY_RE.findall(body):
        if const not in names:
            raise ValueError(f"kAll entry {const} has no name constant")
        entries.append((names[const], kind.lower()))
    if not entries:
        raise ValueError(f"catalog::kAll in {header} has no entries")
    return entries


HIST_BUCKETS = 48


def fail(msg):
    print(f"check_stats_scrape: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 2:
        fail("usage: check_stats_scrape.py <stats.json>")
    try:
        with open(argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {argv[1]}: {e}")

    for section in ("counters", "gauges", "histograms", "histogram_layout",
                    "traces"):
        if section not in doc:
            fail(f"missing top-level section {section!r}")

    layout = doc["histogram_layout"]
    if layout.get("buckets") != HIST_BUCKETS:
        fail(f"histogram_layout.buckets = {layout.get('buckets')}, "
             f"expected {HIST_BUCKETS}")
    lowers = layout.get("lower_bounds")
    expected = [0] + [1 << i for i in range(HIST_BUCKETS - 1)]
    if lowers != expected:
        fail("histogram_layout.lower_bounds do not match the log2 layout")

    traces = doc["traces"]
    for key in ("slow_threshold_ns", "slow_count", "recent", "slow"):
        if key not in traces:
            fail(f"traces.{key} missing")

    catalog = load_catalog()
    for name, kind in catalog:
        if kind == "counter" and name not in doc["counters"]:
            fail(f"catalog counter {name!r} missing from scrape")
        if kind == "gauge" and name not in doc["gauges"]:
            fail(f"catalog gauge {name!r} missing from scrape")
    for name in (name for name, kind in catalog if kind == "histogram"):
        hist = doc["histograms"].get(name)
        if hist is None:
            fail(f"catalog histogram {name!r} missing from scrape")
        for key in ("count", "sum", "p50", "p95", "p99", "buckets"):
            if key not in hist:
                fail(f"histogram {name!r} missing field {key!r}")
        if len(hist["buckets"]) != HIST_BUCKETS:
            fail(f"histogram {name!r} has {len(hist['buckets'])} buckets")
        if sum(hist["buckets"]) != hist["count"]:
            fail(f"histogram {name!r} bucket sum != count")

    # The serve_clients run drove real traffic: admission accepted it and
    # both serving-latency histograms saw every request.
    accepted = doc["counters"]["server.accepted"]
    if accepted <= 0:
        fail("server.accepted is 0 after a client run")
    for name in ("server.queue_wait_ns", "server.request_ns"):
        count = doc["histograms"][name]["count"]
        if count <= 0:
            fail(f"histogram {name!r} empty after a client run")
    if not traces["recent"]:
        fail("traces.recent empty after a client run")

    print(f"check_stats_scrape: OK ({accepted} accepted, "
          f"{doc['counters']['server.processed']} processed, "
          f"{len(traces['recent'])} traces)")


if __name__ == "__main__":
    main(sys.argv)
