// Registry battery for the obs metrics subsystem: concurrent-increment
// exactness, histogram bucket boundaries at edge values, quantile
// extraction, instance aggregation and retirement, gauge delta semantics,
// handle moves, kind-mismatch rejection, external counter polling, the
// pre-registered catalog, and failpoint re-export. The
// snapshot-while-writing tests double as the TSan leg's obs coverage
// (suite name MetricsTest is in the CI tsan regex).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "obs/export_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abc {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramValue;
using obs::Kind;
using obs::kHistBuckets;
using obs::MetricsSnapshot;
using obs::Registry;

// ---------------------------------------------------------------------------
// Histogram layout (pure constexpr)
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketIndexEdgeValues) {
  // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i); last bucket = overflow.
  EXPECT_EQ(obs::hist_bucket_index(0), 0u);
  EXPECT_EQ(obs::hist_bucket_index(1), 1u);
  EXPECT_EQ(obs::hist_bucket_index(2), 2u);
  EXPECT_EQ(obs::hist_bucket_index(3), 2u);
  EXPECT_EQ(obs::hist_bucket_index(4), 3u);
  EXPECT_EQ(obs::hist_bucket_index(7), 3u);
  EXPECT_EQ(obs::hist_bucket_index(8), 4u);
  for (std::size_t k = 1; k + 1 < kHistBuckets; ++k) {
    const u64 lo = u64{1} << (k - 1);
    EXPECT_EQ(obs::hist_bucket_index(lo), k) << "lower edge of bucket " << k;
    EXPECT_EQ(obs::hist_bucket_index(2 * lo - 1), k)
        << "upper edge of bucket " << k;
    EXPECT_EQ(obs::hist_bucket_index(2 * lo), k + 1)
        << "first value past bucket " << k;
  }
  // Overflow clamps into the last bucket.
  EXPECT_EQ(obs::hist_bucket_index(u64{1} << 60), kHistBuckets - 1);
  EXPECT_EQ(obs::hist_bucket_index(~u64{0}), kHistBuckets - 1);
}

TEST(MetricsTest, HistogramBucketBoundsAreContiguous) {
  // The layout every scrape is bucketed against, pinned: latency
  // percentiles stay comparable across builds only while it holds.
  EXPECT_EQ(kHistBuckets, 48u);
  EXPECT_EQ(obs::hist_bucket_lower(0), 0u);
  EXPECT_EQ(obs::hist_bucket_upper(0), 1u);
  for (std::size_t i = 1; i < kHistBuckets; ++i) {
    EXPECT_EQ(obs::hist_bucket_lower(i), u64{1} << (i - 1));
    EXPECT_EQ(obs::hist_bucket_lower(i), obs::hist_bucket_upper(i - 1))
        << "gap at bucket " << i;
    // Every in-range value lands in the bucket whose bounds contain it.
    EXPECT_EQ(obs::hist_bucket_index(obs::hist_bucket_lower(i)), i);
  }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterConcurrentIncrementExactness) {
  Registry reg;
  Counter c = reg.counter("t.hits");
  constexpr std::size_t kThreads = 8;
  constexpr u64 kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (u64 i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  // Every thread adds into the instance's one cell: not one increment lost.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.snapshot().counter_value("t.hits"), kThreads * kPerThread);
}

TEST(MetricsTest, CounterSnapshotWhileWriting) {
  // Scrapes racing live increments must be safe (TSan leg) and monotone,
  // and the post-join scrape must be exact.
  Registry reg;
  Counter c = reg.counter("t.racing");
  constexpr u64 kWriters = 4;
  constexpr u64 kPerWriter = 50'000;
  std::vector<std::thread> writers;
  for (u64 t = 0; t < kWriters; ++t) {
    writers.emplace_back([&c] {
      for (u64 i = 0; i < kPerWriter; ++i) c.inc();
    });
  }
  u64 last = 0;
  for (int i = 0; i < 200; ++i) {
    const u64 now = reg.snapshot().counter_value("t.racing");
    EXPECT_GE(now, last) << "counter went backwards under concurrency";
    EXPECT_LE(now, kWriters * kPerWriter);
    last = now;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(reg.snapshot().counter_value("t.racing"), kWriters * kPerWriter);
}

TEST(MetricsTest, CounterInstancesAggregateUnderOneName) {
  Registry reg;
  Counter a = reg.counter("t.shared");
  Counter b = reg.counter("t.shared");
  a.inc(3);
  b.inc(4);
  // Per-instance reads stay exact (the forwarder contract)...
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
  // ...while the snapshot gives the unified total.
  EXPECT_EQ(reg.snapshot().counter_value("t.shared"), 7u);
}

TEST(MetricsTest, RetiredInstanceTotalsSurviveInSnapshot) {
  Registry reg;
  {
    Counter c = reg.counter("t.churn");
    c.inc(5);
  }  // handle destroyed: total folds into the definition's retired sum
  EXPECT_EQ(reg.snapshot().counter_value("t.churn"), 5u);
  // A fresh instance of the same name gets fresh cells: it starts at zero.
  Counter again = reg.counter("t.churn");
  EXPECT_EQ(again.value(), 0u);
  again.inc(2);
  EXPECT_EQ(reg.snapshot().counter_value("t.churn"), 7u);
}

TEST(MetricsTest, KindMismatchOnReRegistrationThrows) {
  Registry reg;
  Counter c = reg.counter("t.kind");
  EXPECT_THROW((void)reg.histogram("t.kind"), InvalidArgument);
  EXPECT_THROW((void)reg.gauge("t.kind"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

TEST(MetricsTest, GaugeAddSubFromManyThreads) {
  Registry reg;
  Gauge g = reg.gauge("t.depth");
  g.add(10);
  g.sub(3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(reg.snapshot().gauge_value("t.depth"), 7);
  // Balanced add/sub across threads nets to the true value.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(1);
      for (int i = 0; i < 1000; ++i) g.sub(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 7);
  g.sub(10);
  EXPECT_EQ(g.value(), -3) << "gauges must go negative cleanly";
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramRecordsIntoCorrectBuckets) {
  Registry reg;
  Histogram h = reg.histogram("t.lat");
  const u64 values[] = {0, 1, 2, 3, 4, 1023, 1024, ~u64{0}};
  for (const u64 v : values) h.record(v);
  const HistogramValue hv = h.read();
  EXPECT_EQ(hv.count, 8u);
  EXPECT_EQ(hv.buckets[0], 1u);   // {0}
  EXPECT_EQ(hv.buckets[1], 1u);   // {1}
  EXPECT_EQ(hv.buckets[2], 2u);   // [2, 4): 2, 3
  EXPECT_EQ(hv.buckets[3], 1u);   // [4, 8): 4
  EXPECT_EQ(hv.buckets[10], 1u);  // [512, 1024): 1023
  EXPECT_EQ(hv.buckets[11], 1u);  // [1024, 2048): 1024
  EXPECT_EQ(hv.buckets[kHistBuckets - 1], 1u);  // overflow
  u64 expected_sum = 0;
  for (const u64 v : values) expected_sum += v;  // mod 2^64, like the cell
  EXPECT_EQ(hv.sum, expected_sum);
}

TEST(MetricsTest, HistogramQuantilesInterpolateWithinBucket) {
  Registry reg;
  Histogram h = reg.histogram("t.q");
  EXPECT_EQ(h.read().quantile(0.5), 0.0) << "empty histogram reads 0";
  for (int i = 0; i < 100; ++i) h.record(1000);  // bucket 10 = [512, 1024)
  const HistogramValue hv = h.read();
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double est = hv.quantile(q);
    EXPECT_GE(est, 512.0) << "q=" << q;
    EXPECT_LE(est, 1024.0) << "q=" << q;
  }
  // Two spread buckets: the median must sit in the lower one.
  Histogram h2 = reg.histogram("t.q2");
  for (int i = 0; i < 90; ++i) h2.record(10);      // bucket 4 = [8, 16)
  for (int i = 0; i < 10; ++i) h2.record(100000);  // bucket 17
  const HistogramValue hv2 = h2.read();
  EXPECT_LT(hv2.quantile(0.5), 16.0);
  EXPECT_GT(hv2.quantile(0.95), 16.0);
}

TEST(MetricsTest, HistogramConcurrentRecordExactCount) {
  Registry reg;
  Histogram h = reg.histogram("t.conc");
  constexpr std::size_t kThreads = 8;
  constexpr u64 kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (u64 i = 0; i < kPerThread; ++i) h.record(t + 1);
    });
  }
  for (auto& t : threads) t.join();
  const HistogramValue hv = h.read();
  EXPECT_EQ(hv.count, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Global registry: catalog, external sources, failpoint re-export
// ---------------------------------------------------------------------------

TEST(MetricsTest, GlobalRegistryPreRegistersEntireCatalog) {
  const MetricsSnapshot snap = obs::registry().snapshot();
  for (const obs::catalog::Entry& e : obs::catalog::kAll) {
    switch (e.kind) {
      case Kind::kCounter:
        EXPECT_NE(snap.counter(e.name), nullptr) << e.name;
        break;
      case Kind::kGauge:
        EXPECT_NE(snap.gauge(e.name), nullptr) << e.name;
        break;
      case Kind::kHistogram:
        EXPECT_NE(snap.histogram(e.name), nullptr) << e.name;
        break;
    }
  }
}

namespace external_counter {
u64 value = 0;
u64 read() { return value; }
}  // namespace external_counter

TEST(MetricsTest, ExternalCounterIsPolledAtSnapshot) {
  Registry reg;
  reg.add_external_counter("t.external", &external_counter::read);
  external_counter::value = 41;
  EXPECT_EQ(reg.snapshot().counter_value("t.external"), 41u);
  external_counter::value = 42;
  EXPECT_EQ(reg.snapshot().counter_value("t.external"), 42u);
}

TEST(MetricsTest, FailpointTotalsReExportedThroughGlobalRegistry) {
  const u64 hits_before =
      obs::registry().snapshot().counter_value(obs::catalog::kFailpointHits);
  fail::Policy delay;  // zero-microsecond delay: fires without throwing
  delay.action = fail::Action::kDelay;
  {
    fail::ScopedFailpoint fp("obs.test_point", delay);
    ABC_FAILPOINT("obs.test_point");
    ABC_FAILPOINT("obs.test_point");
  }
  const MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.counter_value(obs::catalog::kFailpointHits),
            hits_before + 2);
  EXPECT_EQ(snap.counter_value(obs::catalog::kFailpointHits),
            fail::total_hits());
  EXPECT_EQ(snap.counter_value(obs::catalog::kFailpointFires),
            fail::total_fires());
}

// ---------------------------------------------------------------------------
// Handle lifetime
// ---------------------------------------------------------------------------

TEST(MetricsTest, DefaultConstructedHandlesAreInertInEveryBuild) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.add(5);
  h.record(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.read().count, 0u);
}

TEST(MetricsTest, MovedLiveHandlesKeepCountingAndFoldOnce) {
  // Move-construction hands the instance over; move-assignment retires the
  // target's own instance first. Moved-from handles are inert, and every
  // total lands in the snapshot exactly once, before and after the
  // handles die.
  Registry reg;
  {
    Counter a = reg.counter("t.mv");
    a.inc(3);
    Counter b(std::move(a));
    a.inc(100);
    EXPECT_EQ(a.value(), 0u) << "moved-from counter must be inert";
    EXPECT_EQ(b.value(), 3u);
    b.inc(2);
    Counter c = reg.counter("t.mv");
    c.inc(10);
    c = std::move(b);  // c's own 10 retires; c now owns a's instance (5)
    b.inc(100);
    EXPECT_EQ(b.value(), 0u);
    EXPECT_EQ(c.value(), 5u);
    c.inc(1);
    EXPECT_EQ(reg.snapshot().counter_value("t.mv"), 16u);

    Gauge g = reg.gauge("t.mv_g");
    g.add(-4);
    Gauge moved(std::move(g));
    g.add(50);
    EXPECT_EQ(g.value(), 0) << "moved-from gauge must be inert";
    Gauge target = reg.gauge("t.mv_g");
    target.add(9);
    target = std::move(moved);  // 9 retires; target owns the -4
    EXPECT_EQ(target.value(), -4);
    target.add(1);
    EXPECT_EQ(reg.snapshot().gauge_value("t.mv_g"), 6);

    Histogram x = reg.histogram("t.mv_h");
    x.record(8);
    Histogram z(std::move(x));
    x.record(5);
    EXPECT_EQ(x.read().count, 0u) << "moved-from histogram must be inert";
    Histogram y = reg.histogram("t.mv_h");
    y.record(1);
    y.record(1);
    y = std::move(z);  // the two 1s retire; y owns the 8
    EXPECT_EQ(y.read().count, 1u);
    y.record(2);
    const HistogramValue live = *reg.snapshot().histogram("t.mv_h");
    EXPECT_EQ(live.count, 4u);
    EXPECT_EQ(live.sum, 12u);
  }
  const MetricsSnapshot retired = reg.snapshot();
  EXPECT_EQ(retired.counter_value("t.mv"), 16u);
  EXPECT_EQ(retired.gauge_value("t.mv_g"), 6);
  EXPECT_EQ(retired.histogram("t.mv_h")->count, 4u);
  EXPECT_EQ(retired.histogram("t.mv_h")->sum, 12u);
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

TEST(MetricsTest, StatsJsonCarriesCountersAndLayout) {
  Registry reg;
  Counter c = reg.counter("t.json");
  c.inc(9);
  obs::TraceRing ring(4, /*slow_threshold_ns=*/1000);
  obs::Trace t;
  t.request_id = 1;
  t.admit_ns = 100;
  t.respond_ns = 5000;  // 4900 ns total: slow
  ring.push(t);
  const std::string json = obs::stats_json(reg.snapshot(), &ring);
  EXPECT_NE(json.find("\"histogram_layout\""), std::string::npos);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"t.json\":9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(MetricsTest, TraceRingKeepsNewestAndCountsSlow) {
  obs::TraceRing ring(3, /*slow_threshold_ns=*/100);
  for (u64 i = 1; i <= 5; ++i) {
    obs::Trace t;
    t.request_id = i;
    t.admit_ns = 0;
    t.respond_ns = i * 30;  // 30, 60, 90, 120, 150: last two are slow
    ring.push(t);
  }
  const std::vector<obs::Trace> recent = ring.recent();
  ASSERT_EQ(recent.size(), 3u) << "bounded at capacity";
  EXPECT_EQ(recent.front().request_id, 3u) << "oldest retained";
  EXPECT_EQ(recent.back().request_id, 5u) << "newest last";
  EXPECT_EQ(ring.slow_count(), 2u);
  ASSERT_EQ(ring.slow().size(), 2u);
  EXPECT_EQ(ring.slow().front().request_id, 4u);
}

TEST(MetricsTest, TraceScopeInstallsAndRestoresActiveTrace) {
  EXPECT_EQ(obs::active_trace(), nullptr);
  obs::Trace outer;
  {
    obs::TraceScope scope(&outer);
    EXPECT_EQ(obs::active_trace(), &outer);
    obs::Trace inner;
    {
      obs::TraceScope nested(&inner);
      EXPECT_EQ(obs::active_trace(), &inner);
    }
    EXPECT_EQ(obs::active_trace(), &outer);
  }
  EXPECT_EQ(obs::active_trace(), nullptr);
}

}  // namespace
}  // namespace abc
