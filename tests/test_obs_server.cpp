// Serving-stack observability battery: per-server stats forwarders and
// registry snapshot deltas across a request soak, rejection counters,
// queue-depth balance, the Op::kStats scrape over both transports, trace
// ring stage ordering with key-switch tallies, the slow-request ring, and
// drain accounting at stop().

#include <gtest/gtest.h>

#include <chrono>
#include <complex>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "engine/client_session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

namespace abc {
namespace {

using server::LoopbackChannel;
using server::Op;
using server::Server;
using server::ServerConfig;
using server::Status;
using server::UdsChannel;
using server::UdsServer;

ckks::CkksParams small_params() { return ckks::CkksParams::test_small(10, 3); }

std::vector<std::vector<std::complex<double>>> random_batch(
    std::size_t batch, std::size_t slots, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<std::complex<double>>> msgs(batch);
  for (auto& m : msgs) {
    m.resize(slots);
    for (auto& z : m) z = {dist(rng), dist(rng)};
  }
  return msgs;
}

ckks::KeyBundleFrames frames_of(const engine::KeyBundle& kb) {
  return ckks::KeyBundleFrames{kb.public_key, kb.relin_key, kb.galois_keys};
}

ckks::RequestFrame make_request(u64 tenant, u64 id, Op op, i64 arg,
                                std::vector<u8> payload) {
  ckks::RequestFrame req;
  req.tenant = tenant;
  req.request_id = id;
  req.op = static_cast<u8>(op);
  req.op_arg = arg;
  req.payload = std::move(payload);
  return req;
}

Status status_of(const ckks::ResponseFrame& resp) {
  return static_cast<Status>(resp.status);
}

/// Every test leaves the failpoint registry clean.
struct ObsServerTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

/// One synthetic client on its own context, remote-client shape.
struct Client {
  std::shared_ptr<const ckks::CkksContext> ctx;
  engine::ClientSession session;

  explicit Client(const ckks::CkksParams& params,
                  std::vector<int> rotations = {1})
      : ctx(ckks::CkksContext::create(params)),
        session(ctx, engine::SessionConfig{std::move(rotations)}) {}

  std::size_t eval_limbs() const { return ctx->max_limbs() - 1; }
};

// ---------------------------------------------------------------------------
// Per-server stats and process-wide snapshot deltas across a soak
// ---------------------------------------------------------------------------

TEST_F(ObsServerTest, StatsAndSnapshotTrackARequestSoak) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const auto msgs = random_batch(2, client.ctx->slots(), 11);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  const obs::MetricsSnapshot before = obs::registry().snapshot();

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  Server srv(cfg);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));

  constexpr std::size_t kRequests = 6;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Op op = (i % 2 == 0) ? Op::kEcho : Op::kRotate;
    const ckks::ResponseFrame resp = srv.call(
        make_request(tenant, i + 1, op, op == Op::kRotate ? 1 : 0, upload));
    ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
  }

  // Worker attribution is plain atomics, counted apart from the registry.
  const server::ServerStats stats = srv.stats();
  ASSERT_EQ(stats.per_worker_processed.size(), cfg.workers);
  u64 by_worker = 0;
  for (const u64 n : stats.per_worker_processed) by_worker += n;
  EXPECT_EQ(by_worker, kRequests);

  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.processed, kRequests);
  EXPECT_EQ(stats.rejected_too_large, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);

  const obs::MetricsSnapshot after = obs::registry().snapshot();
  auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_EQ(delta(obs::catalog::kServerAccepted), kRequests);
  EXPECT_EQ(delta(obs::catalog::kServerProcessed), kRequests);
  // Latency histograms populated once per request.
  const obs::HistogramValue* wait =
      after.histogram(obs::catalog::kServerQueueWaitNs);
  const obs::HistogramValue* e2e =
      after.histogram(obs::catalog::kServerRequestNs);
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(e2e, nullptr);
  const obs::HistogramValue* wait_before =
      before.histogram(obs::catalog::kServerQueueWaitNs);
  const obs::HistogramValue* e2e_before =
      before.histogram(obs::catalog::kServerRequestNs);
  EXPECT_EQ(wait->count - (wait_before ? wait_before->count : 0), kRequests);
  EXPECT_EQ(e2e->count - (e2e_before ? e2e_before->count : 0), kRequests);
  EXPECT_GT(e2e->sum, 0u);
  // Deep-layer instrumentation moved too: every rotate fanned its items
  // through the evaluation engine (echoes evaluate nothing, and key
  // generation is not an engine), and the rotates key-switched.
  EXPECT_EQ(delta(obs::catalog::kEngineItemsProcessed),
            kRequests / 2 * msgs.size());
  EXPECT_GT(delta(obs::catalog::kKeySwitchAccumulations), 0u);
  // Queue depth is balanced once the soak is done.
  EXPECT_EQ(after.gauge_value(obs::catalog::kServerQueueDepth),
            before.gauge_value(obs::catalog::kServerQueueDepth));
}

TEST_F(ObsServerTest, ResidentTenantsGaugeFollowsRegisterAndErase) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);

  const i64 base = obs::registry().snapshot().gauge_value(
      obs::catalog::kResidentTenants);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  EXPECT_EQ(obs::registry().snapshot().gauge_value(
                obs::catalog::kResidentTenants),
            base + 1);
  EXPECT_TRUE(srv.unregister_tenant(tenant));
  EXPECT_EQ(obs::registry().snapshot().gauge_value(
                obs::catalog::kResidentTenants),
            base);
}

// ---------------------------------------------------------------------------
// Rejection counters
// ---------------------------------------------------------------------------

TEST_F(ObsServerTest, RejectionCountersAttributeEachAdmissionFailure) {
  ServerConfig cfg;
  cfg.max_request_bytes = 16;
  Server srv(cfg);

  EXPECT_EQ(status_of(srv.call(make_request(
                1, 1, Op::kEcho, 0, std::vector<u8>(17, 0xab)))),
            Status::kTooLarge);
  EXPECT_EQ(srv.stats().rejected_too_large, 1u);
  EXPECT_EQ(srv.stats().accepted, 0u) << "rejected before any enqueue";

  srv.stop();
  EXPECT_EQ(status_of(srv.call(make_request(1, 2, Op::kEcho, 0, {}))),
            Status::kShuttingDown);
  EXPECT_GE(obs::registry().snapshot().counter_value(
                obs::catalog::kServerRejectedShuttingDown),
            1u);
}

// ---------------------------------------------------------------------------
// Op::kStats over both transports
// ---------------------------------------------------------------------------

TEST_F(ObsServerTest, KStatsScrapeAnswersJsonOverLoopbackAndUds) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 3);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  for (u64 i = 1; i <= 3; ++i) {
    ASSERT_EQ(status_of(srv.call(
                  make_request(tenant, i, Op::kRotate, 1, upload))),
              Status::kOk);
  }

  auto check_scrape = [&](const ckks::ResponseFrame& resp) {
    ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
    const std::string json(resp.payload.begin(), resp.payload.end());
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // Always present: layout + traces.
    EXPECT_NE(json.find("\"histogram_layout\""), std::string::npos);
    EXPECT_NE(json.find("\"traces\""), std::string::npos);
    EXPECT_NE(json.find("\"recent\""), std::string::npos);
    // The acceptance scrape: queue-wait and end-to-end histograms
    // present and populated.
    EXPECT_NE(json.find("\"server.queue_wait_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"server.request_ns\""), std::string::npos);
    const obs::MetricsSnapshot snap = srv.metrics_snapshot();
    const obs::HistogramValue* e2e =
        snap.histogram(obs::catalog::kServerRequestNs);
    ASSERT_NE(e2e, nullptr);
    EXPECT_GE(e2e->count, 3u);
    const obs::HistogramValue* wait =
        snap.histogram(obs::catalog::kServerQueueWaitNs);
    ASSERT_NE(wait, nullptr);
    EXPECT_GE(wait->count, 3u);
  };

  {
    SCOPED_TRACE("loopback");
    LoopbackChannel chan(srv);
    ckks::RequestFrame req;
    req.request_id = 100;
    req.op = static_cast<u8>(Op::kStats);
    check_scrape(chan.call(req));
  }
  {
    SCOPED_TRACE("uds");
    const std::string path = "./abc_obs_stats_test.sock";
    UdsServer uds(srv, path);
    UdsChannel chan(path);
    ckks::RequestFrame req;
    req.request_id = 101;
    req.op = static_cast<u8>(Op::kStats);
    check_scrape(chan.call(req));
    uds.stop();
  }
}

// ---------------------------------------------------------------------------
// Trace ring: stage ordering, key-switch tallies, slow filing
// ---------------------------------------------------------------------------

TEST_F(ObsServerTest, TracesRecordOrderedStagesAndKeySwitchTallies) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 5);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  ASSERT_EQ(status_of(srv.call(make_request(tenant, 7, Op::kRotate, 1,
                                            upload))),
            Status::kOk);
  ASSERT_EQ(status_of(srv.call(make_request(tenant, 8, Op::kEcho, 0,
                                            upload))),
            Status::kOk);

  const std::vector<obs::Trace> recent = srv.traces().recent();
  ASSERT_EQ(recent.size(), 2u);
  for (const obs::Trace& t : recent) {
    EXPECT_EQ(t.tenant, tenant);
    // Stage stamps exist and are monotone through the pipeline.
    EXPECT_GT(t.admit_ns, 0u);
    EXPECT_GE(t.dequeue_ns, t.admit_ns);
    EXPECT_GE(t.engine_start_ns, t.dequeue_ns);
    EXPECT_GE(t.engine_end_ns, t.engine_start_ns);
    EXPECT_GE(t.respond_ns, t.engine_end_ns);
    EXPECT_EQ(t.total_ns(), t.respond_ns - t.admit_ns);
  }
  const obs::Trace& rotate = recent[0];
  const obs::Trace& echo = recent[1];
  EXPECT_EQ(rotate.request_id, 7u);
  EXPECT_EQ(rotate.op, static_cast<u8>(Op::kRotate));
  // The rotate key-switched on this request's behalf; the echo did not.
  EXPECT_GT(rotate.ks_decompositions, 0u);
  EXPECT_GT(rotate.ks_accumulations, 0u);
  EXPECT_EQ(echo.request_id, 8u);
  EXPECT_EQ(echo.ks_decompositions, 0u);
  EXPECT_EQ(echo.ks_accumulations, 0u);
}

TEST_F(ObsServerTest, SlowThresholdFilesTracesIntoSlowRing) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  ServerConfig cfg;
  cfg.param_sets = {params};
  cfg.slow_request_ns = 1;  // every real request is "slow"
  Server srv(cfg);
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 9);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  constexpr u64 kRequests = 3;
  for (u64 i = 1; i <= kRequests; ++i) {
    ASSERT_EQ(status_of(srv.call(
                  make_request(tenant, i, Op::kRotate, 1, upload))),
              Status::kOk);
  }
  EXPECT_EQ(srv.traces().slow_count(), kRequests);
  const std::vector<obs::Trace> slow = srv.traces().slow();
  ASSERT_EQ(slow.size(), kRequests);
  EXPECT_EQ(slow.back().request_id, kRequests);
  EXPECT_EQ(srv.stats().slow_requests, kRequests);
}

TEST_F(ObsServerTest, TraceRingCapacityIsBoundedAndValidated) {
  EXPECT_THROW(
      [] {
        ServerConfig cfg;
        cfg.trace_ring_capacity = 0;
        Server srv(cfg);
      }(),
      InvalidArgument);

  ServerConfig cfg;
  cfg.trace_ring_capacity = 2;
  cfg.slow_request_ns = 0;  // slow tracking disabled
  Server srv(cfg);
  // Cheap requests: unknown op answers typed without tenant state.
  for (u64 i = 1; i <= 5; ++i) {
    EXPECT_EQ(status_of(srv.call(
                  make_request(1, i, static_cast<Op>(42), 0, {}))),
              Status::kUnknownOp);
  }
  const std::vector<obs::Trace> recent = srv.traces().recent();
  ASSERT_EQ(recent.size(), 2u) << "ring bounded at configured capacity";
  EXPECT_EQ(recent.front().request_id, 4u);
  EXPECT_EQ(recent.back().request_id, 5u);
  EXPECT_EQ(srv.traces().slow_count(), 0u) << "threshold 0 disables slow";
}

// ---------------------------------------------------------------------------
// Drain accounting at stop()
// ---------------------------------------------------------------------------

TEST_F(ObsServerTest, StopDrainsQueuedRequestsAndCountsThem) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server srv(cfg);

  // Keep the lone worker busy ~20 ms per dispatch so most of the burst is
  // still queued when stop() lands.
  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 20000;
  fail::arm(fail::points::kServerDispatch, slow);

  std::vector<std::future<ckks::ResponseFrame>> futures;
  for (u64 i = 1; i <= 8; ++i) {
    futures.push_back(srv.submit(make_request(1, i, static_cast<Op>(42), 0,
                                              {})));
  }
  srv.stop();

  std::size_t shutting_down = 0;
  for (auto& f : futures) {
    const Status s = status_of(f.get());  // every future resolves
    ASSERT_TRUE(s == Status::kUnknownOp || s == Status::kShuttingDown)
        << static_cast<int>(s);
    if (s == Status::kShuttingDown) ++shutting_down;
  }
  EXPECT_GT(shutting_down, 0u);
  EXPECT_EQ(srv.stats().drained, shutting_down);
  // Drained requests leave the queue-depth gauge balanced too.
  EXPECT_EQ(obs::registry().snapshot().gauge_value(
                obs::catalog::kServerQueueDepth),
            0);
}

}  // namespace
}  // namespace abc
