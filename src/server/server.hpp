#pragma once

/// @file server.hpp
/// engine::ClientSession's counterpart: the long-lived multi-tenant FHE
/// serving daemon. One Server owns
///
///  * a warm ContextCache (parameter set -> shared CkksContext),
///  * a SessionRegistry of tenants and their seed-compressed key records,
///  * a byte-bounded KeyCache regenerating expanded key-switch keys on
///    demand, shared by every tenant and worker (key_cache.hpp),
///  * N per-core worker threads popping the front of one bounded FIFO
///    run queue, guarded by one mutex and one condition variable,
///  * admission control that bounds queue depth and per-request bytes
///    *before* any buffer is reserved (the PR 5/PR 7 envelope-hardening
///    philosophy applied to the daemon's front door).
///
/// Request lifecycle (docs/ARCHITECTURE.md has the full diagram):
///
///   submit(frame) ── admission ──> run queue ──> first idle worker ──>
///   dispatch: registry lookup -> deserialize "ABCB" -> pin the op's key
///   -> Evaluator op per item -> reserialize ──> promise -> future
///
/// Every failure is a *typed response*, never a hang or a crashed worker:
/// admission rejections (kQueueFull, kTooLarge) answer immediately
/// without enqueueing; execution faults map exception -> status
/// (InvalidArgument -> kBadRequest, anything else -> kInternal) per
/// request. Failpoints server.accept / server.queue_full /
/// server.dispatch sit on those paths so the fault drills can prove it.
///
/// Determinism: request processing consumes no PRNG stream and each
/// request is self-contained, so a response's bytes depend only on the
/// request and the tenant's registered keys — independent of worker
/// count and of which worker pops the request. process_serial() runs the
/// same dispatch body as the workers on the calling thread; the soak
/// tests assert daemon responses byte-identical to it.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ckks/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/key_cache.hpp"
#include "server/session_registry.hpp"

namespace abc::server {

/// Request op byte (RequestFrame::op). kRegister's op_arg indexes the
/// server's published parameter menu (ServerConfig::param_sets) and its
/// payload is an "ABCP" key bundle; the evaluate ops take an "ABCB"
/// ciphertext batch and kRotate's op_arg is the step. kStats is the admin
/// scrape: tenant-less, empty request payload, response payload = the
/// obs::stats_json document (metrics snapshot + recent/slow traces).
enum class Op : u8 {
  kEcho = 0,      // deserialize + reserialize (round-trip/loopback)
  kRotate = 1,    // rotate every ciphertext left by op_arg slots
  kSquare = 2,    // square + relinearize every ciphertext
  kRegister = 3,  // register a tenant; response payload = 8-byte id
  kStats = 4,     // metrics + trace scrape; response payload = JSON
};

/// Response status byte (ResponseFrame::status). Everything except kOk
/// carries a human-readable ResponseFrame::error.
enum class Status : u8 {
  kOk = 0,
  kBadRequest = 1,     // rejected input (InvalidArgument anywhere)
  kUnknownTenant = 2,  // tenant id not registered
  kUnknownOp = 3,      // op byte outside the enum
  kTooLarge = 4,       // payload exceeds max_request_bytes (admission)
  kQueueFull = 5,      // run queue full (admission backpressure)
  kInternal = 6,       // invariant/allocation/foreign exception
  kShuttingDown = 7,   // submitted or still queued at stop()
};

const char* status_name(Status s) noexcept;

struct ServerConfig {
  /// Per-core worker threads (>= 1).
  std::size_t workers = 1;
  /// Run-queue capacity per worker (>= 1), exact: submit() answers
  /// kQueueFull once workers x queue_capacity requests are queued.
  std::size_t queue_capacity = 64;
  /// Admission bound on RequestFrame::payload bytes.
  std::size_t max_request_bytes = 64u << 20;
  /// Packed residue width of response envelopes.
  int bits_per_coeff = 44;
  /// Byte budget of the shared expanded-key cache (all tenants, all
  /// workers). Requests regenerate evicted keys on demand, so this bounds
  /// resident key memory without bounding the serveable tenant count;
  /// undersizing it trades throughput (regeneration churn), never
  /// correctness. Must be >= 1 (the Server constructor throws on 0 — a
  /// daemon that cannot hold a key in flight cannot evaluate).
  std::size_t key_cache_bytes = 256u << 20;
  /// Parameter sets kRegister may target (op_arg = index). Published
  /// explicitly because an "ABCK" blob alone cannot reconstruct a full
  /// parameter set — a real deployment pins what it serves.
  std::vector<ckks::CkksParams> param_sets;
  /// Completed traces retained for the Op::kStats scrape (recent ring and
  /// slow ring each hold this many).
  std::size_t trace_ring_capacity = 256;
  /// End-to-end threshold above which a request counts as slow and its
  /// trace is also filed into the slow ring. 0 disables slow tracking.
  u64 slow_request_ns = 1'000'000'000;  // 1 s
};

/// Per-server instantaneous view, populated from this server's own metric
/// instances (exact per-instance semantics; Server::metrics_snapshot()
/// gives the aggregated process view).
struct ServerStats {
  u64 accepted = 0;            // enqueued to the run queue
  u64 rejected_too_large = 0;  // admission: payload bound
  u64 rejected_queue_full = 0; // admission: run queue full
  u64 processed = 0;           // responses produced by workers
  u64 steals = 0;              // always 0 (one queue, nothing to steal);
                               // kept for perfbench/perfbench.cpp
  u64 drained = 0;             // queued requests resolved by stop()
  u64 slow_requests = 0;       // end-to-end time >= slow_request_ns
  std::vector<u64> per_worker_processed;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerConfig& config() const noexcept { return config_; }

  /// Drains nothing: queued-but-unprocessed requests resolve with
  /// kShuttingDown so no future ever hangs. Idempotent.
  void stop();

  // -- tenants ----------------------------------------------------------------

  /// Warm-context lookup (exposed so loopback clients can share the
  /// daemon's context, and for the cache-keying tests).
  std::shared_ptr<const ckks::CkksContext> context_for(
      const ckks::CkksParams& params) {
    return cache_.get_or_create(params);
  }

  /// In-process registration: the same path Op::kRegister takes, minus
  /// the wire frames. Returns the tenant id.
  u64 register_tenant(const ckks::CkksParams& params,
                      const ckks::KeyBundleFrames& bundle);
  bool unregister_tenant(u64 tenant) {
    // Registry first (new requests stop resolving the tenant), then the
    // cache (its expanded keys stop occupying the shared budget).
    const bool erased = registry_.erase(tenant);
    key_cache_.drop_tenant(tenant);
    return erased;
  }

  // -- requests ---------------------------------------------------------------

  /// Admission + dispatch. Always returns a future that resolves — to the
  /// op's response, or to a typed error (admission rejections resolve
  /// immediately, before any enqueue or payload copy).
  std::future<ckks::ResponseFrame> submit(ckks::RequestFrame request);

  /// submit() + wait: the synchronous convenience the transports use.
  ckks::ResponseFrame call(ckks::RequestFrame request) {
    return submit(std::move(request)).get();
  }

  /// The workers' dispatch body, run on the calling thread with no queue
  /// involved (and no server.dispatch failpoint) — the serial reference
  /// every bit-identity soak test compares daemon responses against.
  ckks::ResponseFrame process_serial(const ckks::RequestFrame& request);

  ServerStats stats() const;

  /// The process-wide metrics snapshot (every server, engine, transport
  /// and failpoint aggregate) — what Op::kStats serializes.
  obs::MetricsSnapshot metrics_snapshot() const {
    return obs::registry().snapshot();
  }

  /// This server's completed-request traces (recent + slow rings).
  const obs::TraceRing& traces() const noexcept { return *traces_; }

  /// The shared expanded-key cache (hit/miss/eviction stats for tests,
  /// benches and the capacity-sizing tables in docs/ARCHITECTURE.md).
  KeyCache::Stats key_cache_stats() const { return key_cache_.stats(); }

 private:
  struct Pending;      // queued request + promise
  struct WorkerState;  // per-worker Evaluator + scratch per context

  void worker_loop(std::size_t worker);
  void execute(Pending* pending, WorkerState& state, std::size_t worker);
  ckks::ResponseFrame dispatch(const ckks::RequestFrame& request,
                               WorkerState& state, bool queued);
  ckks::ResponseFrame process(const ckks::RequestFrame& request,
                              WorkerState& state);
  ckks::ResponseFrame evaluate(const ckks::RequestFrame& request,
                               WorkerState& state);
  ckks::ResponseFrame handle_register(const ckks::RequestFrame& request);
  ckks::ResponseFrame handle_stats(const ckks::RequestFrame& request);

  ServerConfig config_;
  ContextCache cache_;
  SessionRegistry registry_;
  KeyCache key_cache_{config_.key_cache_bytes};

  // One lock for dispatch: queue_m_ guards the run queue, and stop()
  // flips stopping_ under it, so a submit that re-checks stopping_ under
  // queue_m_ can never enqueue after stop() drained the queue. Idle
  // workers block on queue_cv_ with no timeout.
  std::mutex queue_m_;
  std::condition_variable queue_cv_;
  std::deque<Pending*> queue_;
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;

  // Per-server metric instances on the global registry: inc/record is one
  // relaxed atomic add on the instance's cell (no stats mutex on any hot
  // path), Counter::value() keeps the exact per-instance reads
  // stats() promises, and the registry snapshot aggregates all servers.
  obs::Counter accepted_ =
      obs::registry().counter(obs::catalog::kServerAccepted);
  obs::Counter rejected_too_large_ =
      obs::registry().counter(obs::catalog::kServerRejectedTooLarge);
  obs::Counter rejected_queue_full_ =
      obs::registry().counter(obs::catalog::kServerRejectedQueueFull);
  obs::Counter rejected_shutting_down_ =
      obs::registry().counter(obs::catalog::kServerRejectedShuttingDown);
  obs::Counter processed_ =
      obs::registry().counter(obs::catalog::kServerProcessed);
  obs::Counter drained_ =
      obs::registry().counter(obs::catalog::kServerDrained);
  obs::Counter slow_requests_ =
      obs::registry().counter(obs::catalog::kServerSlowRequests);
  obs::Gauge queue_depth_ =
      obs::registry().gauge(obs::catalog::kServerQueueDepth);
  obs::Histogram queue_wait_ns_ =
      obs::registry().histogram(obs::catalog::kServerQueueWaitNs);
  obs::Histogram request_ns_ =
      obs::registry().histogram(obs::catalog::kServerRequestNs);
  // Worker attribution is a plain atomic array, not a catalog metric.
  std::unique_ptr<std::atomic<u64>[]> per_worker_processed_;
  std::unique_ptr<obs::TraceRing> traces_;
};

}  // namespace abc::server
