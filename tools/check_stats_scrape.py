#!/usr/bin/env python3
"""Validates an Op::kStats scrape written by `serve_clients --stats-json`.

The scrape is the operator-facing contract of the obs subsystem, so CI
fails the build when it regresses:

 * the payload must parse as JSON with the expected top-level shape
   (counters, gauges, histograms, histogram_layout, traces);
 * every name in the metric catalog (src/obs/metrics.hpp) must be
   present in its section — a subsystem that silently stops exporting
   fails here, not in a dashboard weeks later;
 * the histogram layout must match the compiled-in log2 boundaries;
 * the admission/latency path must have left real data:
   server.accepted > 0 and populated queue-wait and end-to-end
   histograms whose bucket sums equal their counts.

Usage: python3 tools/check_stats_scrape.py STATS_server.json
"""

import json
import sys

# Mirror of obs::catalog::kAll — keep in sync with src/obs/metrics.hpp.
COUNTERS = [
    "server.accepted",
    "server.rejected_too_large",
    "server.rejected_queue_full",
    "server.rejected_shutting_down",
    "server.processed",
    "server.drained",
    "server.slow_requests",
    "session.context_cache_hits",
    "session.context_cache_misses",
    "engine.items_processed",
    "engine.items_failed",
    "keyswitch.decompositions",
    "keyswitch.accumulations",
    "transport.bytes_in",
    "transport.bytes_out",
    "transport.frame_errors",
    "keycache.hits",
    "keycache.misses",
    "keycache.evictions",
    "failpoint.hits",
    "failpoint.fires",
]
GAUGES = [
    "server.queue_depth",
    "session.resident_tenants",
    "keycache.resident_bytes",
]
HISTOGRAMS = [
    "server.queue_wait_ns",
    "server.request_ns",
    "engine.item_ns",
    "keycache.regen_ns",
]

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

    for name in COUNTERS:
        if name not in doc["counters"]:
            fail(f"catalog counter {name!r} missing from scrape")
    for name in GAUGES:
        if name not in doc["gauges"]:
            fail(f"catalog gauge {name!r} missing from scrape")
    for name in HISTOGRAMS:
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
