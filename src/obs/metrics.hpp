#pragma once

/// @file metrics.hpp
/// Unified metrics registry of the serving stack — the measurement layer
/// every ROADMAP perf item above it is judged against.
///
/// ## Model
///
/// Three metric kinds, all identified by flat dotted names from the
/// catalog below:
///
///  * **Counter** — monotonic u64 (requests admitted, bytes out, drains);
///  * **Gauge** — signed instantaneous value maintained by +/- deltas
///    (queue depth, resident tenants), so a change stays one relaxed
///    atomic add, like a counter's;
///  * **Histogram** — fixed-boundary log2-scale distribution (latencies,
///    sizes). Bucket i of kHistBuckets holds values whose bit width is i
///    (bucket 0 = {0}, bucket i = [2^(i-1), 2^i), last bucket = overflow),
///    so recording is a `bit_width` and one relaxed increment — no search,
///    no floating point. p50/p95/p99 come out of the bucket counts at
///    scrape time with linear interpolation inside the bucket.
///
/// ## Instances and the hot path
///
/// Registering a name yields an *instance*: a registry-allocated node of
/// relaxed `std::atomic<u64>` cells (one for a counter or gauge,
/// kHistBuckets + 1 for a histogram) that the handle points to. The
/// record path never takes a lock: `Counter::inc()` is one relaxed
/// `fetch_add` on the instance's own cell, and `value()`/`read()` are
/// relaxed loads of it. Every thread recording through an instance shares
/// its cells: the serving stack records a few dozen adds per request,
/// each request costing milliseconds of FHE compute, so there is no
/// contention worth spreading out.
///
/// Registering the same name twice yields two instances aggregated under
/// one definition: each Server owns its own `server.accepted` counter (so
/// per-server `stats()` keeps exact per-instance semantics via
/// `Counter::value()`), while `Registry::snapshot()` sums every instance
/// under the registry mutex — the unified process view. Relaxed loads
/// racing live increments are benign: monotonic counters never go
/// backwards. Handles are RAII and move without touching the registry;
/// destruction folds the instance's totals into the definition's retired
/// aggregate and frees the node, so totals survive instance churn.

#include <array>
#include <bit>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace abc::obs {

enum class Kind : u8 { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* kind_name(Kind k) noexcept;

// -- histogram layout ---------------------------------------------------------
// One fixed log2 layout for every histogram in the process, so any two
// histograms (and any two builds' scrapes) are bucket-comparable.

inline constexpr std::size_t kHistBuckets = 48;

/// Bucket index of @p v: 0 for 0, otherwise bit_width clamped into range.
constexpr std::size_t hist_bucket_index(u64 v) noexcept {
  const int w = std::bit_width(v);
  return w < static_cast<int>(kHistBuckets) ? static_cast<std::size_t>(w)
                                            : kHistBuckets - 1;
}

/// Inclusive lower bound of bucket @p i (0, 1, 2, 4, 8, ...).
constexpr u64 hist_bucket_lower(std::size_t i) noexcept {
  return i == 0 ? 0 : u64{1} << (i - 1);
}

/// Exclusive upper bound of bucket @p i; the overflow bucket reports
/// twice its lower bound so interpolation stays finite.
constexpr u64 hist_bucket_upper(std::size_t i) noexcept {
  return i == 0 ? 1 : u64{1} << i;
}

// -- snapshot types -----------------------------------------------------------

struct CounterValue {
  std::string name;
  u64 value = 0;
};

struct GaugeValue {
  std::string name;
  i64 value = 0;
};

struct HistogramValue {
  std::string name;
  u64 count = 0;
  u64 sum = 0;  // sum of recorded values (mean = sum / count)
  std::array<u64, kHistBuckets> buckets{};

  /// Quantile in [0, 1] with linear interpolation inside the bucket;
  /// 0 when the histogram is empty.
  double quantile(double q) const noexcept;
};

/// Point-in-time aggregate of every definition in a registry: retired
/// totals plus every live instance.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* counter(std::string_view name) const noexcept;
  const GaugeValue* gauge(std::string_view name) const noexcept;
  const HistogramValue* histogram(std::string_view name) const noexcept;

  /// Counter value by name, 0 when absent — the delta-assertion helper.
  u64 counter_value(std::string_view name) const noexcept {
    const CounterValue* c = counter(name);
    return c == nullptr ? 0 : c->value;
  }
  i64 gauge_value(std::string_view name) const noexcept {
    const GaugeValue* g = gauge(name);
    return g == nullptr ? 0 : g->value;
  }
};

// -- metric catalog -----------------------------------------------------------
// Every instrumented name in the tree. Like the failpoint catalog: a
// metric absent here is a metric no scrape check guards, so additions
// belong here (tools/check_stats_scrape.py reads kAll from this file) and
// in the docs/ARCHITECTURE.md table. The global registry pre-registers every
// entry so a scrape always emits the full catalog (zero-valued until the
// owning subsystem comes up).

namespace catalog {

struct Entry {
  const char* name;
  Kind kind;
};

// server (src/server/server.cpp)
inline constexpr const char* kServerAccepted = "server.accepted";
inline constexpr const char* kServerRejectedTooLarge =
    "server.rejected_too_large";
inline constexpr const char* kServerRejectedQueueFull =
    "server.rejected_queue_full";
inline constexpr const char* kServerRejectedShuttingDown =
    "server.rejected_shutting_down";
inline constexpr const char* kServerProcessed = "server.processed";
inline constexpr const char* kServerDrained = "server.drained";
inline constexpr const char* kServerSlowRequests = "server.slow_requests";
inline constexpr const char* kServerQueueDepth = "server.queue_depth";
inline constexpr const char* kServerQueueWaitNs = "server.queue_wait_ns";
inline constexpr const char* kServerRequestNs = "server.request_ns";

// session registry (src/server/session_registry.cpp)
inline constexpr const char* kContextCacheHits = "session.context_cache_hits";
inline constexpr const char* kContextCacheMisses =
    "session.context_cache_misses";
inline constexpr const char* kResidentTenants = "session.resident_tenants";

// batch item loop (src/engine/item_loop.cpp)
inline constexpr const char* kEngineItemsProcessed = "engine.items_processed";
inline constexpr const char* kEngineItemsFailed = "engine.items_failed";
inline constexpr const char* kEngineItemNs = "engine.item_ns";

// key switching (src/ckks/keyswitch.cpp)
inline constexpr const char* kKeySwitchDecompositions =
    "keyswitch.decompositions";
inline constexpr const char* kKeySwitchAccumulations =
    "keyswitch.accumulations";

// transport (src/server/transport.cpp)
inline constexpr const char* kTransportBytesIn = "transport.bytes_in";
inline constexpr const char* kTransportBytesOut = "transport.bytes_out";
inline constexpr const char* kTransportFrameErrors = "transport.frame_errors";

// key cache (src/server/key_cache.cpp)
inline constexpr const char* kKeyCacheHits = "keycache.hits";
inline constexpr const char* kKeyCacheMisses = "keycache.misses";
inline constexpr const char* kKeyCacheEvictions = "keycache.evictions";
inline constexpr const char* kKeyCacheRegenNs = "keycache.regen_ns";
inline constexpr const char* kKeyCacheResidentBytes = "keycache.resident_bytes";

// failpoints (re-exported from the fail registry at scrape time)
inline constexpr const char* kFailpointHits = "failpoint.hits";
inline constexpr const char* kFailpointFires = "failpoint.fires";

inline constexpr Entry kAll[] = {
    {kServerAccepted, Kind::kCounter},
    {kServerRejectedTooLarge, Kind::kCounter},
    {kServerRejectedQueueFull, Kind::kCounter},
    {kServerRejectedShuttingDown, Kind::kCounter},
    {kServerProcessed, Kind::kCounter},
    {kServerDrained, Kind::kCounter},
    {kServerSlowRequests, Kind::kCounter},
    {kServerQueueDepth, Kind::kGauge},
    {kServerQueueWaitNs, Kind::kHistogram},
    {kServerRequestNs, Kind::kHistogram},
    {kContextCacheHits, Kind::kCounter},
    {kContextCacheMisses, Kind::kCounter},
    {kResidentTenants, Kind::kGauge},
    {kEngineItemsProcessed, Kind::kCounter},
    {kEngineItemsFailed, Kind::kCounter},
    {kEngineItemNs, Kind::kHistogram},
    {kKeySwitchDecompositions, Kind::kCounter},
    {kKeySwitchAccumulations, Kind::kCounter},
    {kTransportBytesIn, Kind::kCounter},
    {kTransportBytesOut, Kind::kCounter},
    {kTransportFrameErrors, Kind::kCounter},
    {kKeyCacheHits, Kind::kCounter},
    {kKeyCacheMisses, Kind::kCounter},
    {kKeyCacheEvictions, Kind::kCounter},
    {kKeyCacheRegenNs, Kind::kHistogram},
    {kKeyCacheResidentBytes, Kind::kGauge},
    {kFailpointHits, Kind::kCounter},
    {kFailpointFires, Kind::kCounter},
};

}  // namespace catalog

// -- registry and handles -----------------------------------------------------

class Registry;

namespace detail {

/// One instance's cells; defined in metrics.cpp, owned by its registry.
struct Instance;

/// Move-only owner of one instance: destruction (or being moved onto)
/// retires the instance into its definition's totals. Default-constructed
/// and moved-from handles are disengaged no-ops.
class MetricHandle {
 public:
  MetricHandle() = default;
  explicit MetricHandle(Instance* inst) noexcept : inst_(inst) {}
  ~MetricHandle();
  MetricHandle(MetricHandle&& other) noexcept
      : inst_(std::exchange(other.inst_, nullptr)) {}
  MetricHandle& operator=(MetricHandle&& other) noexcept;

 protected:
  Instance* inst_ = nullptr;
};

}  // namespace detail

/// Monotonic counter instance.
class Counter : detail::MetricHandle {
 public:
  using MetricHandle::MetricHandle;

  /// One relaxed atomic add on this instance's cell.
  void inc(u64 n = 1) noexcept;

  /// This instance's total (not other instances of the same name — the
  /// per-instance semantics Server::stats() and KeyCache::stats() rely on).
  u64 value() const noexcept;
};

/// Delta-maintained signed gauge instance.
class Gauge : detail::MetricHandle {
 public:
  using MetricHandle::MetricHandle;

  void add(i64 delta) noexcept;
  void sub(i64 delta) noexcept { add(-delta); }
  i64 value() const noexcept;
};

/// Log2-bucket histogram instance.
class Histogram : detail::MetricHandle {
 public:
  using MetricHandle::MetricHandle;

  /// Two relaxed adds (bucket + sum) on this instance's cells.
  void record(u64 value) noexcept;

  /// This instance's distribution.
  HistogramValue read() const noexcept;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates a new instance of the named metric. The name's kind is fixed
  /// by its first registration (catalog entries are pre-registered);
  /// mismatched re-registration throws InvalidArgument. Every handle must
  /// die before the registry does.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Registers a definition without creating an instance, so snapshots
  /// emit the name (zero-valued) before any owner exists.
  void ensure(std::string_view name, Kind kind);

  /// A scrape-time counter whose value is polled from @p read at every
  /// snapshot (the failpoint hit/fire re-export).
  void add_external_counter(std::string_view name, u64 (*read)());

  /// Aggregates every definition: retired totals + live instances +
  /// external sources. Safe to call while other threads record (relaxed
  /// reads; tested under TSan).
  MetricsSnapshot snapshot() const;

  /// The process-wide registry every instrumented subsystem uses.
  static Registry& global();

 private:
  friend class detail::MetricHandle;
  struct Impl;
  Impl* impl_ = nullptr;  // pimpl so the header stays atomic-layout-free

  detail::Instance* register_instance(std::string_view name, Kind kind);
  void retire(detail::Instance* inst) noexcept;
};

/// Shorthand for Registry::global().
inline Registry& registry() { return Registry::global(); }

}  // namespace abc::obs
