// The serving-daemon battery: multi-threaded soak (responses bit-identical
// to serial execution at every worker count), the run-queue contracts
// (FIFO whoever drains, nothing lost, no missed wakeup, no submit lost to
// a racing stop()), backpressure/overload with typed rejections and the
// exact admission bound, warm-context cache keying, failpoint-driven
// fault drills on accept/dispatch/evaluate, and the Unix-domain-socket
// transport end to end, including fd reaping under a lowered
// RLIMIT_NOFILE.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "backend/thread_pool_backend.hpp"
#include "ckks/evaluator.hpp"
#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "engine/client_session.hpp"
#include "key_frame_forgery.hpp"
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
struct ServerTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

/// One synthetic client: a ClientSession whose uploads become request
/// payloads. The session lives on its *own* context built from the same
/// parameters the server publishes — exactly the remote-client shape.
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
// Soak: bit-identity vs serial execution at every worker count
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SoakResponsesBitIdenticalToSerialAtEveryWorkerCount) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());

  // A fixed request mix prepared once: the same bytes go to every server
  // configuration, so responses must match across configurations too.
  const auto msgs = random_batch(3, client.ctx->slots(), 2025);
  constexpr std::size_t kRequests = 9;
  std::vector<ckks::RequestFrame> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Op op = (i % 3 == 0) ? Op::kEcho
                  : (i % 3 == 1) ? Op::kRotate
                                 : Op::kSquare;
    requests.push_back(make_request(
        /*tenant=*/1, /*id=*/i + 1, op, /*arg=*/op == Op::kRotate ? 1 : 0,
        client.session.upload(msgs, client.eval_limbs())));
  }

  std::vector<std::vector<u8>> reference;  // payloads from the first config
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.param_sets = {params};
    Server srv(cfg);
    // Fresh server, first tenant: id 1, matching the prepared frames.
    ASSERT_EQ(srv.register_tenant(params, frames), 1u);

    // N concurrent synthetic clients submit the mix in parallel.
    std::vector<std::future<ckks::ResponseFrame>> futures(kRequests);
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = static_cast<std::size_t>(c); i < kRequests;
               i += 3) {
            futures[i] = srv.submit(requests[i]);
          }
        });
      }
      for (auto& t : clients) t.join();
    }

    for (std::size_t i = 0; i < kRequests; ++i) {
      const ckks::ResponseFrame resp = futures[i].get();
      ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
      EXPECT_EQ(resp.request_id, requests[i].request_id);
      // Bit-identical to the serial reference on this server...
      const ckks::ResponseFrame serial = srv.process_serial(requests[i]);
      ASSERT_EQ(status_of(serial), Status::kOk) << serial.error;
      EXPECT_EQ(resp.payload, serial.payload) << "request " << i;
      // ...and to every other worker count / dispatch order.
      if (reference.size() <= i) {
        reference.push_back(resp.payload);
      } else {
        EXPECT_EQ(resp.payload, reference[i]) << "request " << i;
      }
    }
    const server::ServerStats stats = srv.stats();
    EXPECT_EQ(stats.accepted, kRequests);
    EXPECT_EQ(stats.processed, kRequests);
  }
}

// ---------------------------------------------------------------------------
// Run-queue contracts: FIFO whoever drains, nothing lost, no missed wakeup
// ---------------------------------------------------------------------------

/// Runs @p fn under a watchdog that aborts the test binary if @p fn has
/// not returned within @p limit: a call that can only hang (a join that
/// never ends) fails fast instead of timing out the suite.
template <class Fn>
void run_within_or_abort(std::chrono::milliseconds limit, const char* what,
                         Fn fn) {
  std::promise<void> done;
  std::thread watchdog([limit, what, finished = done.get_future()] {
    if (finished.wait_for(limit) != std::future_status::ready) {
      std::fprintf(stderr, "%s did not return within %lld ms\n", what,
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  fn();
  done.set_value();
  watchdog.join();
}

ServerConfig four_workers() {
  ServerConfig cfg;
  cfg.workers = 4;
  return cfg;
}

// The run-queue contracts, checked through the Server that owns the queue:
// two workers pop the front of one FIFO.
struct RunQueue : ServerTest {
  static ServerConfig two_drainers(std::size_t trace_capacity) {
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.trace_ring_capacity = trace_capacity;
    return cfg;
  }

  /// Sorts by request id, checks the ids are exactly 1..count (each
  /// request dequeued once) and that dequeue order is id order.
  static void expect_partitioned_in_order(std::vector<obs::Trace> traces,
                                          u64 count) {
    ASSERT_EQ(traces.size(), count);
    std::sort(traces.begin(), traces.end(),
              [](const obs::Trace& a, const obs::Trace& b) {
                return a.request_id < b.request_id;
              });
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(traces[i].request_id, i + 1);
      if (i == 0) continue;
      EXPECT_LE(traces[i - 1].dequeue_ns, traces[i].dequeue_ns)
          << "request " << traces[i].request_id
          << " overtook its predecessor";
    }
  }
};

TEST_F(RunQueue, TwoDrainersPopInSubmitOrder) {
  Server srv(two_drainers(512));

  // A per-dispatch delay keeps each worker busy long enough that the
  // other pops the next request meanwhile.
  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 1000;
  fail::arm(fail::points::kServerDispatch, slow);

  // Bounded retry until both workers have drained: no scheduler
  // pathology can flake the two-drainer premise.
  constexpr u64 kPerRound = 16;
  u64 next_id = 1;
  auto both_drained = [&] {
    const server::ServerStats stats = srv.stats();
    return stats.per_worker_processed[0] > 0 &&
           stats.per_worker_processed[1] > 0;
  };
  for (int round = 0; round < 20 && !both_drained(); ++round) {
    std::vector<std::future<ckks::ResponseFrame>> futures;
    for (u64 i = 0; i < kPerRound; ++i) {
      futures.push_back(
          srv.submit(make_request(9, next_id++, static_cast<Op>(42), 0, {})));
    }
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
          << "a queued request was never picked up";
      ASSERT_EQ(status_of(f.get()), Status::kUnknownOp);
    }
  }
  EXPECT_TRUE(both_drained());

  // Submitted in id order from one thread into one queue: both workers
  // pop its front, so dequeue order is id order whoever popped.
  expect_partitioned_in_order(srv.traces().recent(), next_id - 1);
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.per_worker_processed[0] + stats.per_worker_processed[1],
            next_id - 1);
}

TEST_F(RunQueue, ConcurrentDrainersPartitionTheStream) {
  constexpr u64 kItems = 2000;
  ServerConfig cfg = two_drainers(kItems);
  cfg.queue_capacity = 16;  // small, so the submitter often meets a full queue
  Server srv(cfg);

  // One submitter streams into the queue while both workers drain it; a
  // request bounced by the full queue is resubmitted under the same id,
  // so ids enter the queue in order.
  std::vector<std::future<ckks::ResponseFrame>> futures;
  std::thread submitter([&] {
    for (u64 id = 1; id <= kItems; ++id) {
      while (true) {
        auto f = srv.submit(make_request(9, id, static_cast<Op>(42), 0, {}));
        if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          // Ready at once is a rejection or an already finished request.
          ckks::ResponseFrame resp = f.get();
          if (status_of(resp) == Status::kQueueFull) {
            std::this_thread::yield();
            continue;
          }
          std::promise<ckks::ResponseFrame> done;
          done.set_value(std::move(resp));
          futures.push_back(done.get_future());
        } else {
          futures.push_back(std::move(f));
        }
        break;
      }
    }
  });
  submitter.join();

  ASSERT_EQ(futures.size(), kItems);
  for (u64 i = 0; i < kItems; ++i) {
    auto& f = futures[i];
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "request " << i + 1 << " never resolved";
    const ckks::ResponseFrame resp = f.get();
    EXPECT_EQ(resp.request_id, i + 1);
    EXPECT_EQ(status_of(resp), Status::kUnknownOp);
  }

  // Between them the drainers dequeued every request exactly once.
  expect_partitioned_in_order(srv.traces().recent(), kItems);
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.accepted, kItems);
  EXPECT_EQ(stats.processed, kItems);
  EXPECT_EQ(stats.per_worker_processed[0] + stats.per_worker_processed[1],
            kItems);
}

TEST_F(RunQueue, AdmitsExactlyWorkersTimesCapacityQueued) {
  ServerConfig cfg = two_drainers(64);
  cfg.queue_capacity = 3;
  Server srv(cfg);
  const u64 bound = cfg.workers * cfg.queue_capacity;

  // Each worker stalls on the first request it dequeues, so once both
  // have crossed the dispatch failpoint nothing leaves the queue until
  // stop(). Only those two dispatches are delayed.
  fail::Policy stall;
  stall.action = fail::Action::kDelay;
  stall.delay_us = 1'000'000;
  stall.max_fires = cfg.workers;
  fail::arm(fail::points::kServerDispatch, stall);

  u64 id = 1;
  std::vector<std::future<ckks::ResponseFrame>> held;
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    held.push_back(
        srv.submit(make_request(9, id++, static_cast<Op>(42), 0, {})));
  }
  run_within_or_abort(std::chrono::seconds(5), "both workers dequeuing", [&] {
    while (fail::hits(fail::points::kServerDispatch) < cfg.workers) {
      std::this_thread::yield();
    }
  });

  std::vector<std::future<ckks::ResponseFrame>> queued;
  for (u64 i = 0; i < bound; ++i) {
    queued.push_back(
        srv.submit(make_request(9, id++, static_cast<Op>(42), 0, {})));
  }
  // The bound-th queued request was admitted: it waits in the queue...
  EXPECT_EQ(queued.back().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(srv.stats().accepted, cfg.workers + bound);
  // ...and the next one is rejected at once.
  auto over = srv.submit(make_request(9, id++, static_cast<Op>(42), 0, {}));
  ASSERT_EQ(over.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(status_of(over.get()), Status::kQueueFull);
  EXPECT_EQ(srv.stats().rejected_queue_full, 1u);

  // stop() lets the held requests finish and drains the queued ones.
  srv.stop();
  for (auto& f : held) EXPECT_EQ(status_of(f.get()), Status::kUnknownOp);
  for (auto& f : queued) EXPECT_EQ(status_of(f.get()), Status::kShuttingDown);
}

TEST_F(ServerTest, ManySubmittersLoseNothing) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;  // small enough that some submits bounce
  Server srv(cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::vector<std::future<ckks::ResponseFrame>>> futures(
      kThreads);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(srv.submit(make_request(
            9, t * kPerThread + i, static_cast<Op>(42), 0, {})));
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      auto& f = futures[t][i];
      ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
          << "request " << t * kPerThread + i << " never resolved";
      const ckks::ResponseFrame resp = f.get();
      EXPECT_EQ(resp.request_id, t * kPerThread + i);
      const Status s = status_of(resp);
      EXPECT_TRUE(s == Status::kUnknownOp || s == Status::kQueueFull)
          << static_cast<int>(resp.status);
    }
  }
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.accepted + stats.rejected_queue_full,
            kThreads * kPerThread);
  EXPECT_EQ(stats.processed, stats.accepted);
}

TEST_F(ServerTest, ParkedWorkersWakeForEverySingleSubmit) {
  // No poll rescues a missed notify: every lone submit to an idle server
  // must wake a worker by itself.
  Server srv(four_workers());
  for (u64 i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));  // park
    auto f = srv.submit(make_request(9, i, static_cast<Op>(42), 0, {}));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "submit " << i << " was never picked up";
    EXPECT_EQ(status_of(f.get()), Status::kUnknownOp);
  }
}

TEST_F(ServerTest, StopOnIdleServerReturnsPromptly) {
  for (int round = 0; round < 50; ++round) {
    Server srv(four_workers());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // park
    run_within_or_abort(std::chrono::seconds(1), "stop() on an idle server",
                        [&] { srv.stop(); });
  }
}

TEST_F(ServerTest, SubmitsRacingStopAllResolve) {
  // A delay at the accept failpoint holds each submit between its
  // lock-free stopping_ pre-check and the enqueue, so stop() lands inside
  // that window: only the re-check under the queue lock keeps those
  // submits out of the queue stop() has already drained.
  fail::Policy window;
  window.action = fail::Action::kDelay;
  window.delay_us = 200;
  fail::arm(fail::points::kServerAccept, window);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50;  // 200 < 4 workers x 64: never full
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Server srv(four_workers());
    std::atomic<std::size_t> submitted{0};
    std::vector<std::vector<std::future<ckks::ResponseFrame>>> futures(
        kThreads);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(srv.submit(make_request(
              9, t * kPerThread + i, static_cast<Op>(42), 0, {})));
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Stop mid-stream: some submits land before the flip, some after.
    while (submitted.load(std::memory_order_relaxed) < kThreads * 4) {
      std::this_thread::yield();
    }
    srv.stop();
    for (auto& t : submitters) t.join();

    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready)
            << "a submit racing stop() never resolved";
        const Status s = status_of(f.get());
        EXPECT_TRUE(s == Status::kUnknownOp || s == Status::kShuttingDown)
            << static_cast<int>(s);
      }
    }
    const server::ServerStats stats = srv.stats();
    EXPECT_EQ(stats.accepted, stats.processed + stats.drained);
  }
}

// ---------------------------------------------------------------------------
// Backpressure and admission control (satellite 1)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, OverloadFloodRejectsTypedImmediatelyAndRecovers) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  Server srv(cfg);

  // Slow the lone worker so the flood outruns it: ~20 ms per dispatch
  // against a burst of 64 sub-millisecond submits.
  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 20000;
  fail::arm(fail::points::kServerDispatch, slow);

  constexpr std::size_t kFlood = 64;
  std::vector<std::future<ckks::ResponseFrame>> futures;
  std::size_t immediate = 0;
  for (std::size_t i = 0; i < kFlood; ++i) {
    futures.push_back(srv.submit(make_request(9, i, static_cast<Op>(42), 0,
                                              {/*empty payload*/})));
    // A rejected request's future is ready before submit() returns —
    // admission never blocks the flooder on the flooded queue.
    if (futures.back().wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++immediate;
    }
  }

  std::size_t queue_full = 0;
  for (auto& f : futures) {
    const ckks::ResponseFrame resp = f.get();
    const Status s = status_of(resp);
    // Clean typed outcome for every request: processed (this op byte is
    // unknown, so kUnknownOp) or rejected at admission.
    ASSERT_TRUE(s == Status::kQueueFull || s == Status::kUnknownOp)
        << static_cast<int>(resp.status);
    if (s == Status::kQueueFull) {
      ++queue_full;
      EXPECT_FALSE(resp.error.empty());
    }
  }
  EXPECT_GT(queue_full, 0u);
  EXPECT_GE(immediate, queue_full);  // every rejection was instant
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.rejected_queue_full, queue_full);
  EXPECT_EQ(stats.accepted + stats.rejected_queue_full, kFlood);

  // Recovery: with the delay gone the same server drains normally.
  fail::disarm_all();
  const ckks::ResponseFrame after =
      srv.call(make_request(9, 999, static_cast<Op>(42), 0, {}));
  EXPECT_EQ(status_of(after), Status::kUnknownOp);
}

TEST_F(ServerTest, QueueFullFailpointCoversTheRejectionPath) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  Server srv(cfg);

  fail::Policy slow;
  slow.action = fail::Action::kDelay;
  slow.delay_us = 20000;
  fail::arm(fail::points::kServerDispatch, slow);
  fail::arm(fail::points::kServerQueueFull, fail::Policy{});  // throws

  std::vector<std::future<ckks::ResponseFrame>> futures;
  for (std::size_t i = 0; i < 32; ++i) {
    futures.push_back(
        srv.submit(make_request(9, i, static_cast<Op>(42), 0, {})));
  }
  std::size_t failpoint_rejections = 0;
  for (auto& f : futures) {
    const ckks::ResponseFrame resp = f.get();
    // Even with a fault injected *inside* the rejection path, the
    // response is still typed kQueueFull — never a hang or a crash.
    if (status_of(resp) == Status::kQueueFull) {
      ++failpoint_rejections;
      EXPECT_NE(resp.error.find(fail::points::kServerQueueFull),
                std::string::npos);
    }
  }
  EXPECT_GT(failpoint_rejections, 0u);
  EXPECT_EQ(fail::fires(fail::points::kServerQueueFull),
            failpoint_rejections);
}

TEST_F(ServerTest, AdmissionBoundsPayloadBytesBeforeEnqueue) {
  ServerConfig cfg;
  cfg.max_request_bytes = 16;
  Server srv(cfg);

  auto rejected = srv.submit(
      make_request(1, 1, Op::kEcho, 0, std::vector<u8>(17, 0xab)));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ckks::ResponseFrame resp = rejected.get();
  EXPECT_EQ(status_of(resp), Status::kTooLarge);
  EXPECT_FALSE(resp.error.empty());

  // At the bound is admitted (and then rejected downstream as garbage —
  // a *different* typed error, proving it reached processing).
  const ckks::ResponseFrame at_bound =
      srv.call(make_request(1, 2, Op::kEcho, 0, std::vector<u8>(16, 0xab)));
  EXPECT_EQ(status_of(at_bound), Status::kUnknownTenant);
  EXPECT_EQ(srv.stats().rejected_too_large, 1u);
}

TEST_F(ServerTest, StoppedServerAnswersShuttingDown) {
  Server srv(ServerConfig{});
  srv.stop();
  auto f = srv.submit(make_request(1, 1, Op::kEcho, 0, {}));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(status_of(f.get()), Status::kShuttingDown);
  srv.stop();  // idempotent
}

TEST_F(ServerTest, EveryFailureModeAnswersItsTypedStatus) {
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

  // The good path first, so the errors below are errors of the input.
  EXPECT_EQ(status_of(srv.call(make_request(tenant, 1, Op::kEcho, 0, upload))),
            Status::kOk);
  // Unregistered tenant.
  EXPECT_EQ(status_of(srv.call(make_request(tenant + 99, 2, Op::kEcho, 0,
                                            upload))),
            Status::kUnknownTenant);
  // Op byte outside the enum.
  EXPECT_EQ(
      status_of(srv.call(make_request(tenant, 3, static_cast<Op>(42), 0, {}))),
      Status::kUnknownOp);
  // Garbage ciphertext envelope.
  EXPECT_EQ(status_of(srv.call(
                make_request(tenant, 4, Op::kEcho, 0, {0x01, 0x02, 0x03}))),
            Status::kBadRequest);
  // Rotation step with no registered Galois key.
  EXPECT_EQ(
      status_of(srv.call(make_request(tenant, 5, Op::kRotate, 3, upload))),
      Status::kBadRequest);
  // Register against a menu index the server does not publish.
  EXPECT_EQ(status_of(srv.call(make_request(0, 6, Op::kRegister, 7,
                                            {0x00, 0x01}))),
            Status::kBadRequest);
  // Register with a corrupt bundle envelope.
  EXPECT_EQ(status_of(srv.call(make_request(0, 7, Op::kRegister, 0,
                                            {0x41, 0x42, 0x43}))),
            Status::kBadRequest);
  // None of it took the server down.
  EXPECT_EQ(status_of(srv.call(make_request(tenant, 8, Op::kEcho, 0, upload))),
            Status::kOk);
}

TEST_F(ServerTest, BadKeyFramesRegisterNothing) {
  // Registration builds the resident records straight from the key
  // frames. A flag-0 (uncompressed), truncated or wrong-kind frame, or an
  // out-of-range residue in any digit, fails registration whole: in
  // process as InvalidArgument, over the wire as kBadRequest, and no
  // tenant id is spent on it.
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames good = frames_of(client.session.key_bundle());
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  ASSERT_EQ(srv.register_tenant(params, good), 1u);

  const std::size_t limbs = client.ctx->max_limbs();
  const int bits = client.session.config().bits_per_coeff;
  const std::size_t digit_bits =
      limbs * client.ctx->n() * static_cast<std::size_t>(bits);
  std::vector<std::pair<std::string, ckks::KeyBundleFrames>> bad;
  const auto add = [&](std::string what, auto&& edit) {
    ckks::KeyBundleFrames frames = good;
    edit(frames);
    bad.emplace_back(std::move(what), std::move(frames));
  };
  add("relin flag 0", [](ckks::KeyBundleFrames& b) {
    b.relin_key[6] = 0;
    testing_ref::reseal_key_header(b.relin_key);
  });
  add("galois flag 0", [](ckks::KeyBundleFrames& b) {
    b.galois_keys[0][6] = 0;
    testing_ref::reseal_key_header(b.galois_keys[0]);
  });
  add("relin truncated", [](ckks::KeyBundleFrames& b) {
    b.relin_key.pop_back();
  });
  add("galois truncated", [](ckks::KeyBundleFrames& b) {
    b.galois_keys[0].resize(b.galois_keys[0].size() / 2);
  });
  add("public key in the relin slot",
      [](ckks::KeyBundleFrames& b) { b.relin_key = b.public_key; });
  add("relin key in the galois slot",
      [](ckks::KeyBundleFrames& b) { b.galois_keys[0] = b.relin_key; });
  for (std::size_t d = 0; d < limbs; ++d) {
    add("relin residue out of range in digit " + std::to_string(d),
        [&](ckks::KeyBundleFrames& b) {
          testing_ref::saturate_word(b.relin_key, 26 * 8 + (d + 1) * digit_bits,
                                     bits);
        });
    add("galois residue out of range in digit " + std::to_string(d),
        [&](ckks::KeyBundleFrames& b) {
          testing_ref::saturate_word(b.galois_keys[0],
                                     26 * 8 + d * digit_bits + bits, bits);
        });
  }

  u64 request_id = 100;
  for (const auto& [what, frames] : bad) {
    SCOPED_TRACE(what);
    EXPECT_THROW((void)srv.register_tenant(params, frames), InvalidArgument);
    const ckks::RequestFrame req = make_request(
        0, ++request_id, Op::kRegister, 0, ckks::serialize_key_bundle(frames));
    EXPECT_EQ(status_of(srv.call(req)), Status::kBadRequest);
  }
  // Ids are never reused, so the next good registration shows that none
  // of the bad ones took one.
  EXPECT_EQ(srv.register_tenant(params, good), 2u);
}

// ---------------------------------------------------------------------------
// Warm-context cache keying (satellite 3)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SameParamsShareOneWarmContextDifferentParamsNever) {
  const ckks::CkksParams params_a = small_params();
  const ckks::CkksParams params_b = ckks::CkksParams::test_small(10, 2);
  ServerConfig cfg;
  cfg.param_sets = {params_a, params_b};
  Server srv(cfg);

  const auto ctx_a1 = srv.context_for(params_a);
  const auto ctx_a2 = srv.context_for(params_a);
  const auto ctx_b = srv.context_for(params_b);
  EXPECT_EQ(ctx_a1.get(), ctx_a2.get());  // same params: one warm context
  EXPECT_NE(ctx_a1.get(), ctx_b.get());   // different params: never shared

  // Two tenants registering under the same menu entry land on the shared
  // context; registration over the wire hands back distinct monotone ids.
  LoopbackChannel chan(srv);
  Client c1(params_a);
  Client c2(params_a);
  const u64 id1 =
      server::register_over_channel(chan, 0, c1.session.key_bundle());
  const u64 id2 =
      server::register_over_channel(chan, 0, c2.session.key_bundle());
  EXPECT_LT(id1, id2);  // ids never reused, strictly increasing
  EXPECT_EQ(srv.context_for(params_a).get(), ctx_a1.get());
}

TEST_F(ServerTest, SharedContextKeepsStreamAndSecretIdsMonotoneAcrossTenants) {
  // Loopback tenants that build their sessions directly on the daemon's
  // cached context: the context-wide counters must keep every tenant's
  // key and encryption streams disjoint (the PR 5 never-alias guarantee,
  // now across tenants of one warm context).
  const ckks::CkksParams params = small_params();
  Server srv(ServerConfig{.param_sets = {params}});
  const auto ctx = srv.context_for(params);

  engine::ClientSession s1(ctx);
  engine::ClientSession s2(ctx);
  EXPECT_NE(s1.secret_key().stream_id, s2.secret_key().stream_id);
  EXPECT_LT(s1.secret_key().stream_id, s2.secret_key().stream_id);

  // Both sessions encrypting the same messages on the shared context:
  // every ciphertext keystream id is unique — within a session (the
  // context-wide counter) and across sessions (the secret id folded into
  // the stream id) — so no two tenants can ever alias a keystream.
  const auto msgs = random_batch(2, ctx->slots(), 11);
  auto cts1 = s1.encrypt(msgs, ctx->max_limbs());
  auto cts2 = s2.encrypt(msgs, ctx->max_limbs());
  std::vector<u64> ids;
  for (const auto& ct : cts1) {
    ASSERT_TRUE(ct.compressed_c1.has_value());
    ids.push_back(ct.compressed_c1->stream_id);
  }
  for (const auto& ct : cts2) {
    ASSERT_TRUE(ct.compressed_c1.has_value());
    ids.push_back(ct.compressed_c1->stream_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  // The context-wide counter itself is monotone across tenants: a fresh
  // reservation lands above everything handed out so far.
  EXPECT_GT(ctx->reserve_stream_ids(1), 0u);
}

// ---------------------------------------------------------------------------
// Fault drills (tentpole battery + failpoint weave)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AcceptFaultAnswersTypedAndServerSurvives) {
  Server srv(ServerConfig{});
  fail::Policy boom;
  boom.action = fail::Action::kThrowRuntimeError;
  fail::arm(fail::points::kServerAccept, boom);

  auto f = srv.submit(make_request(1, 1, static_cast<Op>(42), 0, {}));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ckks::ResponseFrame resp = f.get();
  EXPECT_EQ(status_of(resp), Status::kInternal);
  EXPECT_NE(resp.error.find(fail::points::kServerAccept), std::string::npos);
  EXPECT_GT(fail::fires(fail::points::kServerAccept), 0u);

  fail::disarm(fail::points::kServerAccept);
  EXPECT_EQ(status_of(srv.call(make_request(1, 2, static_cast<Op>(42), 0, {}))),
            Status::kUnknownOp);
}

TEST_F(ServerTest, DispatchFaultFailsOneRequestNotTheWorker) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 5);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  const ckks::ResponseFrame serial =
      srv.process_serial(make_request(tenant, 1, Op::kEcho, 0, upload));

  fail::Policy once;
  once.action = fail::Action::kThrowRuntimeError;
  once.max_fires = 1;
  fail::arm(fail::points::kServerDispatch, once);

  const ckks::ResponseFrame faulted =
      srv.call(make_request(tenant, 1, Op::kEcho, 0, upload));
  EXPECT_EQ(status_of(faulted), Status::kInternal);
  EXPECT_NE(faulted.error.find(fail::points::kServerDispatch),
            std::string::npos);

  // The worker that absorbed the fault serves the retry bit-identically.
  const ckks::ResponseFrame retried =
      srv.call(make_request(tenant, 1, Op::kEcho, 0, upload));
  ASSERT_EQ(status_of(retried), Status::kOk) << retried.error;
  EXPECT_EQ(retried.payload, serial.payload);
}

TEST_F(ServerTest, EvaluateItemFaultIsTypedAndLeavesNoResidue) {
  const ckks::CkksParams params = small_params();
  Client client(params);
  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(2, client.ctx->slots(), 13);
  const ckks::RequestFrame request = make_request(
      tenant, 1, Op::kRotate, 1,
      client.session.upload(msgs, client.eval_limbs()));
  const ckks::ResponseFrame serial = srv.process_serial(request);
  ASSERT_EQ(status_of(serial), Status::kOk) << serial.error;

  fail::arm(fail::points::kEvaluateItem, fail::Policy{});  // InvalidArgument
  EXPECT_EQ(status_of(srv.call(request)), Status::kBadRequest);
  fail::disarm(fail::points::kEvaluateItem);

  // Same request bytes after the drill: bit-identical to the reference.
  const ckks::ResponseFrame after = srv.call(request);
  ASSERT_EQ(status_of(after), Status::kOk) << after.error;
  EXPECT_EQ(after.payload, serial.payload);
}

// ---------------------------------------------------------------------------
// The evaluate loop: one Evaluator op per item, on a key pinned once
// ---------------------------------------------------------------------------

TEST_F(ServerTest, EvaluatorBitIdenticalAcrossBackends) {
  // The server's per-item loop (scalar context) answers with the same
  // bytes as a plain Evaluator loop on the scalar backend and on a
  // 4-thread pool, where each item's limbs and digits fan out.
  const ckks::CkksParams params = small_params();
  Client client(params);
  const ckks::KeyBundleFrames frames = frames_of(client.session.key_bundle());
  const auto msgs = random_batch(4, client.ctx->slots(), 23);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());

  auto run = [&](std::shared_ptr<backend::PolyBackend> backend) {
    auto ctx = ckks::CkksContext::create(params, std::move(backend));
    const server::TenantSession keys =
        server::parse_tenant_bundle(ctx, frames);
    const auto cts = ckks::deserialize_ciphertext_batch(ctx, upload);
    const ckks::Evaluator eval(ctx);
    const ckks::GaloisKeys gks = keys.expand_gks();
    const ckks::RelinKey rlk = keys.expand_rlk();
    ckks::KeySwitchScratch scratch;
    std::vector<ckks::Ciphertext> rotated;
    std::vector<ckks::Ciphertext> squared;
    for (const ckks::Ciphertext& ct : cts) {
      rotated.push_back(eval.rotate(ct, 1, gks, &scratch));
      ckks::Ciphertext product = eval.mul(ct, ct);
      eval.relinearize_inplace(product, rlk, &scratch);
      squared.push_back(std::move(product));
    }
    return std::make_pair(ckks::serialize_ciphertext_batch(rotated, 44),
                          ckks::serialize_ciphertext_batch(squared, 44));
  };

  const auto scalar = run(nullptr);
  const auto pooled = run(std::make_shared<backend::ThreadPoolBackend>(4));
  EXPECT_EQ(scalar.first, pooled.first);    // rotate: any worker count
  EXPECT_EQ(scalar.second, pooled.second);  // square: any worker count

  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant = srv.register_tenant(params, frames);
  const ckks::ResponseFrame rotate =
      srv.process_serial(make_request(tenant, 1, Op::kRotate, 1, upload));
  const ckks::ResponseFrame square =
      srv.process_serial(make_request(tenant, 2, Op::kSquare, 0, upload));
  ASSERT_EQ(status_of(rotate), Status::kOk) << rotate.error;
  ASSERT_EQ(status_of(square), Status::kOk) << square.error;
  EXPECT_EQ(rotate.payload, scalar.first);
  EXPECT_EQ(square.payload, scalar.second);
}

TEST_F(ServerTest, RotateRequestPinsTheKeyOnce) {
  // A multi-item request resolves its key exactly once — one key-cache
  // lookup however many items it carries — and a failing lookup fails the
  // whole request before any item runs.
  const ckks::CkksParams params = small_params();
  Client client(params);
  Server srv(ServerConfig{.param_sets = {params}});
  const u64 tenant =
      srv.register_tenant(params, frames_of(client.session.key_bundle()));
  const auto msgs = random_batch(8, client.ctx->slots(), 31);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  const auto lookups = [&] {
    const server::KeyCache::Stats st = srv.key_cache_stats();
    return st.hits + st.misses;
  };
  const auto processed = [] {
    return obs::registry().snapshot().counter_value(
        obs::catalog::kEngineItemsProcessed);
  };

  for (const Op op : {Op::kRotate, Op::kSquare}) {
    SCOPED_TRACE(static_cast<int>(op));
    const u64 before = lookups();
    const u64 items_before = processed();
    const ckks::ResponseFrame resp =
        srv.call(make_request(tenant, 1, op, 1, upload));
    ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
    EXPECT_EQ(lookups(), before + 1);
    EXPECT_EQ(processed(), items_before + msgs.size());
  }

  // Step 2 has no registered key: the lookup throws, the request answers
  // kBadRequest, and no item is processed.
  const u64 items_before = processed();
  const ckks::ResponseFrame missing =
      srv.call(make_request(tenant, 3, Op::kRotate, 2, upload));
  EXPECT_EQ(status_of(missing), Status::kBadRequest);
  EXPECT_EQ(processed(), items_before);
}

// ---------------------------------------------------------------------------
// Unix-domain-socket transport
// ---------------------------------------------------------------------------

/// Decrypts a kRotate-by-1 response and checks every slot moved left by one.
void expect_rotated_left_by_one(
    Client& client,
    const std::vector<std::vector<std::complex<double>>>& msgs,
    const ckks::ResponseFrame& resp) {
  ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
  const auto rotated =
      ckks::deserialize_ciphertext_batch(client.ctx, resp.payload);
  const auto decoded = client.session.decrypt_batch(rotated);
  ASSERT_EQ(decoded.size(), msgs.size());
  const std::size_t slots = client.ctx->slots();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    for (std::size_t j = 0; j < slots; ++j) {
      EXPECT_NEAR(decoded[i][j].real(), msgs[i][(j + 1) % slots].real(), 1e-2);
      EXPECT_NEAR(decoded[i][j].imag(), msgs[i][(j + 1) % slots].imag(), 1e-2);
    }
  }
}

TEST_F(ServerTest, UdsTransportServesConcurrentSessionsEndToEnd) {
  const ckks::CkksParams params = small_params();
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  Server srv(cfg);
  const std::string path = "./abc_uds_test.sock";
  UdsServer uds(srv, path);

  // Four concurrent clients, each with its own connection and session,
  // each doing a full verified echo round trip through the socket.
  std::vector<std::string> failures;
  std::mutex failures_m;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(params);
        UdsChannel chan(path);
        const u64 tenant = server::register_over_channel(
            chan, 0, client.session.key_bundle());
        const auto msgs =
            random_batch(2, client.ctx->slots(), 100 + static_cast<u64>(c));
        const auto report = client.session.round_trip_with_retry(
            msgs, client.eval_limbs(),
            server::as_session_transport(chan, tenant, Op::kEcho));
        if (!report.ok) {
          throw std::runtime_error("round trip did not verify");
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failures_m);
        failures.push_back("client " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : failures) ADD_FAILURE() << f;

  // A compute op over the same socket: rotate by 1 and check the slots
  // actually moved.
  Client client(params);
  UdsChannel chan(path);
  const u64 tenant =
      server::register_over_channel(chan, 0, client.session.key_bundle());
  const auto msgs = random_batch(2, client.ctx->slots(), 200);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  expect_rotated_left_by_one(
      client, msgs, chan.call(make_request(tenant, 1, Op::kRotate, 1, upload)));
  uds.stop();
}

/// One seeded mutation of a wire frame: 1-4 flipped bits, a cut, 1-16
/// appended bytes, or a forged value in one of the u32 fields at
/// @p u32_fields (byte offsets).
std::vector<u8> mutate_frame(std::vector<u8> b,
                             std::initializer_list<std::size_t> u32_fields,
                             std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      for (u64 n = 1 + rng() % 4; n > 0; --n) {
        const u64 bit = rng() % (b.size() * 8);
        b[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
      }
      break;
    case 1:
      b.resize(rng() % b.size());
      break;
    case 2:
      b.resize(b.size() + 1 + rng() % 16, static_cast<u8>(rng()));
      break;
    default: {
      const std::size_t at = u32_fields.begin()[rng() % u32_fields.size()];
      u32 v = 0;
      for (int i = 0; i < 4; ++i) v |= u32{b[at + i]} << (8 * i);
      v = rng() % 2 == 0 ? static_cast<u32>(rng()) : v + 1 - 2 * (rng() % 2);
      for (int i = 0; i < 4; ++i) b[at + i] = static_cast<u8>(v >> (8 * i));
    }
  }
  return b;
}

TEST_F(ServerTest, UdsStreamOfMutatedFramesAnswersTypedAndStillServes) {
  // One connection carries a seeded stream of requests: rotate uploads
  // ("ABCB") and registration bundles ("ABCP") mutated most of the time,
  // inside "ABCQ" frames mutated half of the time. Every reply must be a
  // typed status from the input-rejection set — never kInternal — and the
  // same daemon must then answer a verified rotate on the same connection.
  const ckks::CkksParams params = small_params();
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.param_sets = {params};
  Server srv(cfg);
  const std::string path = "./abc_uds_mutated_test.sock";
  UdsServer uds(srv, path);
  Client client(params);
  UdsChannel chan(path);
  const u64 tenant =
      server::register_over_channel(chan, 0, client.session.key_bundle());
  const auto msgs = random_batch(2, client.ctx->slots(), 300);
  const std::vector<u8> upload =
      client.session.upload(msgs, client.eval_limbs());
  const std::vector<u8> bundle =
      ckks::serialize_key_bundle(frames_of(client.session.key_bundle()));

  constexpr u64 kSeed = 0xabc5'7e11;
  constexpr u64 kFrames = 240;
  std::array<int, 8> seen{};
  for (u64 i = 0; i < kFrames; ++i) {
    std::seed_seq seq{kSeed, i};
    std::mt19937_64 rng(seq);
    const bool reg = rng() % 4 == 0;
    std::vector<u8> payload = reg ? bundle : upload;
    if (rng() % 4 != 0) payload = mutate_frame(std::move(payload), {4, 8}, rng);
    std::vector<u8> frame = ckks::serialize_request_frame(
        reg ? make_request(0, i, Op::kRegister, 0, std::move(payload))
            : make_request(tenant, i, Op::kRotate, 1, std::move(payload)));
    if (rng() % 2 == 0) frame = mutate_frame(std::move(frame), {29}, rng);
    const ckks::ResponseFrame resp = chan.call_bytes(frame);
    const Status status = status_of(resp);
    EXPECT_TRUE(status == Status::kOk || status == Status::kBadRequest ||
                status == Status::kUnknownTenant ||
                status == Status::kUnknownOp)
        << "seed " << kSeed << " frame " << i << ": status "
        << static_cast<int>(resp.status) << " " << resp.error;
    ++seen[std::min<std::size_t>(resp.status, seen.size() - 1)];
  }
  // The stream reached both sides of the parsers.
  EXPECT_GT(seen[static_cast<int>(Status::kOk)], 0);
  EXPECT_GT(seen[static_cast<int>(Status::kBadRequest)], 0);
  expect_rotated_left_by_one(
      client, msgs,
      chan.call(make_request(tenant, kFrames, Op::kRotate, 1, upload)));
  uds.stop();
}

TEST_F(ServerTest, UdsRejectsOversizedFrameClaimWithoutAllocating) {
  ServerConfig cfg;
  cfg.max_request_bytes = 1u << 20;
  Server srv(cfg);
  const std::string path = "./abc_uds_bound_test.sock";
  UdsServer uds(srv, path);

  // Raw socket speaking the framing by hand: claim a 4 GiB frame. The
  // server must answer a typed kTooLarge response (having allocated
  // nothing close to the claim) and close the connection.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const u8 huge_claim[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, huge_claim, 4, 0), 4);

  u8 header[4] = {};
  std::size_t got = 0;
  while (got < 4) {
    const ssize_t n = ::recv(fd, header + got, 4 - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  u64 len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<u64>(header[i]) << (8 * i);
  ASSERT_GT(len, 0u);
  ASSERT_LT(len, u64{1} << 20);  // a small typed response, not an echo
  std::vector<u8> frame(static_cast<std::size_t>(len));
  got = 0;
  while (got < frame.size()) {
    const ssize_t n = ::recv(fd, frame.data() + got, frame.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const ckks::ResponseFrame resp = ckks::deserialize_response_frame(frame);
  EXPECT_EQ(status_of(resp), Status::kTooLarge);
  EXPECT_FALSE(resp.error.empty());
  ::close(fd);
  uds.stop();
}

TEST_F(ServerTest, UdsReapsClosedConnectionsUnderALowFdLimit) {
  // Under a lowered RLIMIT_NOFILE, 4x the limit in connect/close cycles:
  // each one ends only when the daemon closes its side, so a daemon that
  // keeps finished connections' fds open fails the first cycle. Then the
  // process runs out of fds while a connection waits in the backlog; the
  // daemon must retry that accept, not stop accepting, and serve a
  // verified round trip on it.
  const ckks::CkksParams params = small_params();
  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  const std::string path = "./abc_uds_fd_limit_test.sock";
  UdsServer uds(srv, path);
  Client client(params);
  const auto msgs = random_batch(2, client.ctx->slots(), 400);

  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  struct RestoreLimit {
    rlimit lim;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &lim); }
  } restore{old};
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);  // lowest free fd
  ASSERT_GE(probe, 0);
  rlimit low = old;
  low.rlim_cur = std::min<rlim_t>(old.rlim_cur, static_cast<rlim_t>(probe) + 64);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const timeval timeout{10, 0};
  for (rlim_t i = 0; i < 4 * low.rlim_cur; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0) << "cycle " << i << ": " << std::strerror(errno);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    const bool connected =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    ::shutdown(fd, SHUT_WR);
    u8 byte = 0;
    const ssize_t got = connected ? ::recv(fd, &byte, 1, 0) : -1;
    ::close(fd);
    ASSERT_TRUE(connected) << "cycle " << i << ": " << std::strerror(errno);
    ASSERT_EQ(got, 0) << "cycle " << i << ": the daemon kept the connection";
  }

  // Take every free fd, then free one for a first channel. The daemon
  // accepts it into the slot its blocked accept already holds; its next
  // accept then fails with EMFILE until the fillers close, and the
  // channel opened after that must still be served.
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(probe)) >= 0;) fillers.push_back(fd);
  ASSERT_EQ(errno, EMFILE);
  ::close(probe);
  // The first connection is a raw socket, as in the cycle loop: with no
  // free fd, UBSan's vptr check cannot probe a UdsChannel under
  // construction and reports a false "invalid vptr". It stays open until
  // the end of the test, as the channel did.
  struct CloseFd {
    int fd;
    ~CloseFd() { ::close(fd); }
  } first{::socket(AF_UNIX, SOCK_STREAM, 0)};
  ASSERT_GE(first.fd, 0) << std::strerror(errno);
  ASSERT_EQ(::connect(first.fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const int fd : fillers) ::close(fd);
  UdsChannel chan(path);

  auto served = std::async(std::launch::async, [&] {
    const u64 tenant =
        server::register_over_channel(chan, 0, client.session.key_bundle());
    return client.session
        .round_trip_with_retry(
            msgs, client.eval_limbs(),
            server::as_session_transport(chan, tenant, Op::kEcho))
        .ok;
  });
  if (served.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    uds.stop();  // resets the unaccepted connection, ending the call
    FAIL() << "the daemon stopped accepting after EMFILE";
  }
  EXPECT_TRUE(served.get());
  uds.stop();
}

}  // namespace
}  // namespace abc
