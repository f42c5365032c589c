#include "server/server.hpp"

#include <exception>
#include <limits>
#include <string>
#include <utility>

#include "ckks/evaluator.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "engine/item_loop.hpp"
#include "obs/export_json.hpp"

namespace abc::server {
namespace {

ckks::ResponseFrame error_response(u64 request_id, Status status,
                                   std::string message) {
  ckks::ResponseFrame resp;
  resp.request_id = request_id;
  resp.status = static_cast<u8>(status);
  resp.error = std::move(message);
  return resp;
}

}  // namespace

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnknownTenant: return "unknown_tenant";
    case Status::kUnknownOp: return "unknown_op";
    case Status::kTooLarge: return "too_large";
    case Status::kQueueFull: return "queue_full";
    case Status::kInternal: return "internal";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "unknown_status";
}

/// A queued request: the frame plus the promise its future hangs off.
/// Heap-allocated so the queue moves one pointer; exactly one of execute()
/// or stop()'s drain fulfills-and-deletes it.
struct Server::Pending {
  ckks::RequestFrame request;
  std::promise<ckks::ResponseFrame> promise;
  obs::Trace trace;  // stamped at admission, completed by execute()
};

/// Per-worker evaluation state: one Evaluator and one KeySwitchScratch per
/// context. The scratch is reused by every item the worker switches, so
/// it must not be shared across server worker threads.
struct Server::WorkerState {
  struct Slot {
    explicit Slot(std::shared_ptr<const ckks::CkksContext> ctx)
        : evaluator(std::move(ctx)) {}
    ckks::Evaluator evaluator;
    ckks::KeySwitchScratch scratch;
  };
  std::map<const ckks::CkksContext*, std::unique_ptr<Slot>> slots;

  Slot& slot_for(const std::shared_ptr<const ckks::CkksContext>& ctx) {
    auto& slot = slots[ctx.get()];
    if (!slot) slot = std::make_unique<Slot>(ctx);
    return *slot;
  }
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  ABC_CHECK_ARG(config_.workers >= 1, "server needs at least one worker");
  ABC_CHECK_ARG(config_.queue_capacity >= 1,
                "run-queue capacity must be nonzero");
  ABC_CHECK_ARG(config_.trace_ring_capacity >= 1,
                "trace ring needs at least one slot");

  per_worker_processed_.reset(new std::atomic<u64>[config_.workers]);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    per_worker_processed_[w].store(0, std::memory_order_relaxed);
  }
  traces_ = std::make_unique<obs::TraceRing>(config_.trace_ring_capacity,
                                             config_.slow_request_ns);
  worker_states_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    worker_states_.push_back(std::make_unique<WorkerState>());
  }
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_m_);
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  }
  queue_cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers are gone and submit() re-checks stopping_ under queue_m_, so
  // nothing enqueues any more: whatever is still queued resolves typed,
  // never hangs.
  std::lock_guard<std::mutex> lock(queue_m_);
  for (Pending* p : queue_) {
    queue_depth_.sub(1);
    drained_.inc();
    p->promise.set_value(error_response(p->request.request_id,
                                        Status::kShuttingDown,
                                        "server stopped before dispatch"));
    delete p;
  }
  queue_.clear();
}

u64 Server::register_tenant(const ckks::CkksParams& params,
                            const ckks::KeyBundleFrames& bundle) {
  auto ctx = cache_.get_or_create(params);
  return registry_.add(parse_tenant_bundle(ctx, bundle));
}

std::future<ckks::ResponseFrame> Server::submit(ckks::RequestFrame request) {
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  std::future<ckks::ResponseFrame> future = pending->promise.get_future();
  const u64 request_id = pending->request.request_id;

  auto reject = [&](Status status, std::string message) {
    pending->promise.set_value(
        error_response(request_id, status, std::move(message)));
    return std::move(future);
  };

  // Admission, in order: liveness, accept fault drill, payload bound,
  // queue depth. All of it runs before any payload-sized allocation or
  // enqueue — a rejected request costs the rejecter O(1).
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_shutting_down_.inc();
    return reject(Status::kShuttingDown, "server is shutting down");
  }
  try {
    ABC_FAILPOINT(fail::points::kServerAccept);
  } catch (const std::exception& e) {
    return reject(Status::kInternal, e.what());
  }
  if (pending->request.payload.size() > config_.max_request_bytes) {
    rejected_too_large_.inc();
    return reject(Status::kTooLarge,
                  "request payload exceeds the admission bound");
  }

  // Admission passed: stamp the trace before the enqueue — a worker may
  // dequeue the pending the instant queue_m_ is released.
  pending->trace.request_id = request_id;
  pending->trace.tenant = pending->request.tenant;
  pending->trace.op = pending->request.op;
  pending->trace.admit_ns = obs::now_ns();

  // Enqueue. stopping_ is re-checked under the lock stop() flips it
  // under, so no request can land in a queue stop() has already drained.
  // The queue is full at workers x queue_capacity requests; the division
  // states that bound without overflowing the product.
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(queue_m_);
    if (stopping_.load(std::memory_order_relaxed)) {
      rejected_shutting_down_.inc();
      return reject(Status::kShuttingDown, "server is shutting down");
    }
    if (queue_.size() / config_.workers < config_.queue_capacity) {
      queue_.push_back(pending.release());  // the queue owns it now
      accepted_.inc();
      queue_depth_.add(1);
      enqueued = true;
    }
  }

  if (!enqueued) {
    rejected_queue_full_.inc();
    try {
      ABC_FAILPOINT(fail::points::kServerQueueFull);
    } catch (const std::exception& e) {
      return reject(Status::kQueueFull, e.what());
    }
    return reject(Status::kQueueFull, "the run queue is at capacity");
  }

  queue_cv_.notify_one();
  return future;
}

void Server::worker_loop(std::size_t worker) {
  WorkerState& state = *worker_states_[worker];

  while (true) {
    Pending* p = nullptr;
    {
      // stopping_ is checked before popping: stop() means queued work
      // resolves kShuttingDown via the drain (the contract stop()
      // documents), not a slow crawl through the backlog. The in-flight
      // request, if any, still finishes normally. Every worker pops the
      // front, so requests start in submit order; the dequeue stamp is
      // taken under the lock, so dequeue_ns order is pop order.
      std::unique_lock<std::mutex> lock(queue_m_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      p = queue_.front();
      queue_.pop_front();
      queue_depth_.sub(1);
      p->trace.dequeue_ns = obs::now_ns();
    }
    execute(p, state, worker);
  }
}

void Server::execute(Pending* pending, WorkerState& state,
                     std::size_t worker) {
  queue_wait_ns_.record(pending->trace.queue_wait_ns());
  // Install the trace for the duration of the request so deep layers
  // (key-switch tallies, engine stamps) reach it through active_trace()
  // without signature changes.
  obs::TraceScope trace_scope(&pending->trace);
  ckks::ResponseFrame resp = dispatch(pending->request, state, true);
  pending->trace.respond_ns = obs::now_ns();
  const u64 total_ns = pending->trace.total_ns();
  request_ns_.record(total_ns);
  if (config_.slow_request_ns != 0 && total_ns >= config_.slow_request_ns) {
    slow_requests_.inc();
  }
  traces_->push(pending->trace);
  // Counted before the promise resolves: a client that has its response
  // must find it reflected in processed counts (scrape-after-call reads
  // are exact, not eventually consistent).
  processed_.inc();
  per_worker_processed_[worker].fetch_add(1, std::memory_order_relaxed);
  pending->promise.set_value(std::move(resp));
  delete pending;
}

ckks::ResponseFrame Server::process_serial(const ckks::RequestFrame& request) {
  // Fresh single-use worker state: the workers' dispatch body with no
  // queue and no shared evaluator state — the reference the soak tests
  // diff against.
  WorkerState state;
  return dispatch(request, state, false);
}

ckks::ResponseFrame Server::dispatch(const ckks::RequestFrame& request,
                                     WorkerState& state, bool queued) {
  // The exception->status taxonomy of the whole daemon: a caller mistake
  // (malformed envelope, missing key, bad step) is kBadRequest; everything
  // else — invariant breaks, allocation failure, fault injection — is
  // kInternal. Either way the worker survives and the promise resolves.
  // Only a queued request crosses the server.dispatch failpoint.
  try {
    if (queued) ABC_FAILPOINT(fail::points::kServerDispatch);
    return process(request, state);
  } catch (const InvalidArgument& e) {
    return error_response(request.request_id, Status::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(request.request_id, Status::kInternal, e.what());
  } catch (...) {
    return error_response(request.request_id, Status::kInternal,
                          "foreign exception during dispatch");
  }
}

ckks::ResponseFrame Server::process(const ckks::RequestFrame& request,
                                    WorkerState& state) {
  switch (static_cast<Op>(request.op)) {
    case Op::kEcho:
    case Op::kRotate:
    case Op::kSquare:
      return evaluate(request, state);
    case Op::kRegister:
      return handle_register(request);
    case Op::kStats:
      return handle_stats(request);
  }
  return error_response(request.request_id, Status::kUnknownOp,
                        "unrecognized op byte " +
                            std::to_string(static_cast<int>(request.op)));
}

ckks::ResponseFrame Server::evaluate(const ckks::RequestFrame& request,
                                     WorkerState& state) {
  const auto tenant = registry_.find(request.tenant);
  if (!tenant) {
    return error_response(request.request_id, Status::kUnknownTenant,
                          "tenant " + std::to_string(request.tenant) +
                              " is not registered");
  }
  std::vector<ckks::Ciphertext> cts =
      ckks::deserialize_ciphertext_batch(tenant->ctx, request.payload);

  if (obs::Trace* t = obs::active_trace()) t->engine_start_ns = obs::now_ns();
  // Every evaluate op is one loop over the request's items on this
  // worker, on a key pinned once for the whole request before any item
  // runs: one lookup (at most one regeneration), a lookup failure fails
  // the request, and the cache cannot evict the key mid-request.
  std::vector<ckks::Ciphertext> out;
  const auto each = [&](const auto& item) {
    out.resize(cts.size());
    engine::run_items(cts.size(), fail::points::kEvaluateItem,
                      [&](std::size_t i) { out[i] = item(cts[i]); })
        .rethrow_first();
  };
  switch (static_cast<Op>(request.op)) {
    case Op::kEcho:
      out = std::move(cts);
      break;
    case Op::kRotate: {
      ABC_CHECK_ARG(request.op_arg >= std::numeric_limits<int>::min() &&
                        request.op_arg <= std::numeric_limits<int>::max(),
                    "rotation step out of range");
      const ckks::CompressedKeySwitchKey* rec =
          tenant->galois_record_for(static_cast<int>(request.op_arg));
      if (rec == nullptr) {
        throw InvalidArgument("no Galois key generated for this step");
      }
      const auto key = key_cache_.get(tenant->id, *rec, tenant->ctx);
      WorkerState::Slot& slot = state.slot_for(tenant->ctx);
      each([&](const ckks::Ciphertext& ct) {
        return slot.evaluator.rotate(ct, *key, &slot.scratch);
      });
      break;
    }
    case Op::kSquare: {
      const auto key = key_cache_.get(tenant->id, tenant->rlk, tenant->ctx);
      WorkerState::Slot& slot = state.slot_for(tenant->ctx);
      each([&](const ckks::Ciphertext& ct) {
        ckks::Ciphertext product = slot.evaluator.mul(ct, ct);
        slot.evaluator.relinearize_inplace(product, *key, &slot.scratch);
        return product;
      });
      break;
    }
    default:
      ABC_CHECK_STATE(false, "evaluate() reached with a non-evaluate op");
  }
  if (obs::Trace* t = obs::active_trace()) t->engine_end_ns = obs::now_ns();

  ckks::ResponseFrame resp;
  resp.request_id = request.request_id;
  resp.status = static_cast<u8>(Status::kOk);
  resp.payload = ckks::serialize_ciphertext_batch(out, config_.bits_per_coeff);
  return resp;
}

ckks::ResponseFrame Server::handle_register(
    const ckks::RequestFrame& request) {
  if (request.op_arg < 0 ||
      static_cast<std::size_t>(request.op_arg) >= config_.param_sets.size()) {
    return error_response(request.request_id, Status::kBadRequest,
                          "op_arg does not index the published parameter "
                          "menu");
  }
  const ckks::KeyBundleFrames bundle =
      ckks::deserialize_key_bundle(request.payload);
  auto ctx = cache_.get_or_create(
      config_.param_sets[static_cast<std::size_t>(request.op_arg)]);
  const u64 id = registry_.add(parse_tenant_bundle(ctx, bundle));

  ckks::ResponseFrame resp;
  resp.request_id = request.request_id;
  resp.status = static_cast<u8>(Status::kOk);
  resp.payload.resize(8);
  for (int i = 0; i < 8; ++i) {
    resp.payload[static_cast<std::size_t>(i)] =
        static_cast<u8>(id >> (8 * i));
  }
  return resp;
}

ckks::ResponseFrame Server::handle_stats(const ckks::RequestFrame& request) {
  // Tenant-less admin scrape: the process-wide snapshot plus this
  // server's trace rings, rendered once into the response payload.
  const std::string json =
      obs::stats_json(obs::registry().snapshot(), traces_.get());
  ckks::ResponseFrame resp;
  resp.request_id = request.request_id;
  resp.status = static_cast<u8>(Status::kOk);
  resp.payload.assign(json.begin(), json.end());
  return resp;
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = accepted_.value();
  out.rejected_too_large = rejected_too_large_.value();
  out.rejected_queue_full = rejected_queue_full_.value();
  out.processed = processed_.value();
  out.drained = drained_.value();
  out.slow_requests = slow_requests_.value();
  out.per_worker_processed.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    out.per_worker_processed.push_back(
        per_worker_processed_[w].load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace abc::server
