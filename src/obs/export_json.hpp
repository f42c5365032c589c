#pragma once

/// @file export_json.hpp
/// JSON rendering of a metrics snapshot + trace rings — the payload of the
/// Op::kStats admin request and the schema tools/check_stats_scrape.py
/// validates in CI:
///
///     {
///       "counters":   { "server.accepted": 123, ... },
///       "gauges":     { "server.queue_depth": 0, ... },
///       "histograms": { "server.request_ns":
///                         { "count": N, "sum": S,
///                           "p50": .., "p95": .., "p99": ..,
///                           "buckets": [48 counts] }, ... },
///       "histogram_layout": { "buckets": 48,
///                             "lower_bounds": [0, 1, 2, 4, ...] },
///       "traces": { "slow_threshold_ns": .., "slow_count": ..,
///                   "recent": [ {trace}, ... ], "slow": [ ... ] }
///     }
///
/// Written by hand (no JSON dependency in the image); emits only what the
/// snapshot holds.

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abc::obs {

/// Renders @p snap (and @p traces when non-null) as the kStats document.
std::string stats_json(const MetricsSnapshot& snap,
                       const TraceRing* traces = nullptr);

}  // namespace abc::obs
