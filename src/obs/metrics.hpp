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
///  * **Counter** — monotonic u64 (requests admitted, bytes out, steals);
///  * **Gauge** — signed instantaneous value maintained by +/- deltas
///    (queue depth, resident tenants). Deltas instead of set() keep
///    gauges shardable: the true value is the sum of every thread's
///    deltas, so the hot path stays one relaxed atomic add;
///  * **Histogram** — fixed-boundary log2-scale distribution (latencies,
///    sizes). Bucket i of kHistBuckets holds values whose bit width is i
///    (bucket 0 = {0}, bucket i = [2^(i-1), 2^i), last bucket = overflow),
///    so recording is a `bit_width` and one relaxed increment — no search,
///    no floating point. p50/p95/p99 come out of the bucket counts at
///    scrape time with linear interpolation inside the bucket.
///
/// ## Sharding and the hot path
///
/// The registry never takes a lock on the record path. Each thread owns a
/// shard — a flat array of relaxed `std::atomic<u64>` cells — found
/// through a thread-local cache; a metric instance owns a fixed cell
/// range, so `Counter::inc()` is: load the TLS shard pointer, one relaxed
/// `fetch_add`. Scrapes aggregate across shards (and across instances of
/// the same name) under the registry mutex; relaxed loads racing live
/// increments are benign — a scrape sees a value at least as fresh as the
/// last full barrier, and monotonic counters never go backwards.
///
/// ## Instances
///
/// Registering the same name twice yields two *instances* aggregated
/// under one definition: each Server owns its own `server.accepted`
/// counter (so per-server `stats()` keeps exact per-instance semantics
/// via `Counter::value()`), while `Registry::snapshot()` sums every
/// instance — the unified process view. Handles are RAII: destruction
/// folds the instance's total into the definition's retired aggregate and
/// recycles the cells, so totals survive instance churn and the cell
/// space stays bounded.
///
/// ## Compile-out
///
/// Defining ABC_NO_METRICS (CMake -DABC_NO_METRICS=ON) turns every handle
/// into a no-op and snapshots into empty documents while keeping the API
/// linkable — the <=2% overhead acceptance bound is measured against this
/// build (bench_server_saturation in both configurations).

#include <array>
#include <bit>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace abc::obs {

/// False when the build compiled metrics out (ABC_NO_METRICS).
#ifdef ABC_NO_METRICS
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

enum class Kind : u8 { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* kind_name(Kind k) noexcept;

// -- histogram layout ---------------------------------------------------------
// One fixed log2 layout for every histogram in the process, so any two
// histograms (and any two PRs' BENCH_*.json files) are bucket-comparable.

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
/// totals plus every live instance summed across every thread shard.
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
// belong here, in tools/check_stats_scrape.py, and in the
// docs/ARCHITECTURE.md table. The global registry pre-registers every
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
inline constexpr const char* kServerSteals = "server.steals";
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

// engines (src/engine/fan_out_core.cpp)
inline constexpr const char* kEngineItemsProcessed = "engine.items_processed";
inline constexpr const char* kEngineItemsFailed = "engine.items_failed";
inline constexpr const char* kEngineItemNs = "engine.item_ns";

// key switching (src/ckks/keyswitch.cpp)
inline constexpr const char* kKeySwitchDecompositions =
    "keyswitch.decompositions";
inline constexpr const char* kKeySwitchAccumulations =
    "keyswitch.accumulations";
inline constexpr const char* kKeySwitchHoistReuses = "keyswitch.hoist_reuses";

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
    {kServerSteals, Kind::kCounter},
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
    {kKeySwitchHoistReuses, Kind::kCounter},
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

/// Monotonic counter instance. Default-constructed handles are
/// disengaged no-ops (and every handle is a no-op under ABC_NO_METRICS).
class Counter {
 public:
  Counter() = default;
  ~Counter();
  Counter(Counter&& other) noexcept { move_from(other); }
  Counter& operator=(Counter&& other) noexcept;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// One relaxed atomic add on this thread's shard.
  void inc(u64 n = 1) noexcept;

  /// This instance's total across all shards (not other instances of the
  /// same name — the per-instance forwarder semantics ContextCache and
  /// Server::stats() rely on).
  u64 value() const noexcept;

 private:
  friend class Registry;
  void move_from(Counter& other) noexcept;
  Registry* reg_ = nullptr;
  u32 def_ = 0;
  u32 cell_ = 0;
};

/// Delta-maintained signed gauge instance.
class Gauge {
 public:
  Gauge() = default;
  ~Gauge();
  Gauge(Gauge&& other) noexcept { move_from(other); }
  Gauge& operator=(Gauge&& other) noexcept;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(i64 delta) noexcept;
  void sub(i64 delta) noexcept { add(-delta); }
  i64 value() const noexcept;

 private:
  friend class Registry;
  void move_from(Gauge& other) noexcept;
  Registry* reg_ = nullptr;
  u32 def_ = 0;
  u32 cell_ = 0;
};

/// Log2-bucket histogram instance.
class Histogram {
 public:
  Histogram() = default;
  ~Histogram();
  Histogram(Histogram&& other) noexcept { move_from(other); }
  Histogram& operator=(Histogram&& other) noexcept;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Two relaxed adds (bucket + sum) on this thread's shard.
  void record(u64 value) noexcept;

  /// This instance's distribution across all shards.
  HistogramValue read() const noexcept;

 private:
  friend class Registry;
  void move_from(Histogram& other) noexcept;
  Registry* reg_ = nullptr;
  u32 def_ = 0;
  u32 cell_ = 0;
};

class Registry {
 public:
  /// Cells per thread shard. An instance consumes 1 (counter/gauge) or
  /// kHistBuckets+1 (histogram) cells; retirement recycles them, so this
  /// bounds *live* instances, not lifetime registrations.
  static constexpr std::size_t kShardCells = 8192;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates a new instance of the named metric. The name's kind is fixed
  /// by its first registration (catalog entries are pre-registered);
  /// mismatched re-registration throws InvalidArgument.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Registers a definition without creating an instance, so snapshots
  /// emit the name (zero-valued) before any owner exists.
  void ensure(std::string_view name, Kind kind);

  /// A scrape-time counter whose value is polled from @p read at every
  /// snapshot (the failpoint hit/fire re-export).
  void add_external_counter(std::string_view name, u64 (*read)());

  /// Aggregates every definition: retired totals + live instances across
  /// all shards + external sources. Safe to call while other threads
  /// record (relaxed reads; tested under TSan).
  MetricsSnapshot snapshot() const;

  /// The process-wide registry every instrumented subsystem uses.
  static Registry& global();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  struct Impl;
  Impl* impl_ = nullptr;  // pimpl so the header stays atomic-layout-free

  u64 read_cells(u32 cell, std::size_t span,
                 std::array<u64, kHistBuckets + 1>* out) const noexcept;
  void add_cell(u32 cell, u64 delta) noexcept;
  void retire(u32 def, u32 cell) noexcept;
  std::pair<u32, u32> register_instance(std::string_view name, Kind kind);
};

/// Shorthand for Registry::global().
inline Registry& registry() { return Registry::global(); }

}  // namespace abc::obs
