#pragma once

/// @file trace.hpp
/// Request-scoped tracing for the serving stack. A Trace carries one
/// request's identity (tenant, request id, op) from admission through
/// dispatch, engine fan-out, key-switch, and response, collecting
/// monotonic-clock stage stamps plus key-switch work tallies. Completed
/// traces land in a bounded in-memory ring (plus a separate ring for
/// requests over the slow threshold), scrapeable via Op::kStats.
///
/// Deep layers never see a Trace parameter: the worker thread that owns a
/// request installs it as the thread's active trace (TraceScope), and the
/// key-switcher stamps through `active_trace()` — a thread-local pointer
/// check that is null (no-op) outside a request. This only works because
/// server contexts run the engines on a ScalarBackend: the fan-out stays
/// on the worker thread, so the thread-local is visible to every layer of
/// the request. A pool-backend context would silently drop the tallies
/// (never corrupt them), since pool workers carry no active trace.
///
/// Tracing is always on: the per-request cost is a handful of clock reads
/// and one mutex push per completion, invisible next to FHE compute.

#include <cstddef>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace abc::obs {

/// Monotonic nanoseconds (steady clock) — the stamp base for every stage.
u64 now_ns() noexcept;

/// One request's journey. Stage stamps are 0 until the stage happens.
struct Trace {
  u64 request_id = 0;
  u64 tenant = 0;
  u8 op = 0;

  u64 admit_ns = 0;         // accepted into the run queue
  u64 dequeue_ns = 0;       // popped by a worker
  u64 engine_start_ns = 0;  // evaluate() fan-out began
  u64 engine_end_ns = 0;    // evaluate() fan-out returned
  u64 respond_ns = 0;       // response serialized, promise resolved

  // Key-switch work done on behalf of this request, stamped through
  // active_trace() from ckks::KeySwitcher.
  u64 ks_decompositions = 0;
  u64 ks_accumulations = 0;

  u64 queue_wait_ns() const noexcept {
    return dequeue_ns >= admit_ns ? dequeue_ns - admit_ns : 0;
  }
  u64 total_ns() const noexcept {
    return respond_ns >= admit_ns ? respond_ns - admit_ns : 0;
  }
};

/// Bounded ring of completed traces. One mutex push per *request* (not per
/// stage), so contention is bounded by completion rate, not work rate.
class TraceRing {
 public:
  TraceRing(std::size_t capacity, u64 slow_threshold_ns);

  /// Records a completed trace; also files it into the slow ring when its
  /// end-to-end time meets the threshold.
  void push(const Trace& trace);

  /// Oldest-to-newest copies of the retained traces.
  std::vector<Trace> recent() const;
  std::vector<Trace> slow() const;

  /// Lifetime count of slow requests (the ring only keeps the last few).
  u64 slow_count() const;

  std::size_t capacity() const noexcept { return capacity_; }
  u64 slow_threshold_ns() const noexcept { return slow_threshold_ns_; }

 private:
  static std::vector<Trace> copy_out(const std::vector<Trace>& ring,
                                     std::size_t next);

  const std::size_t capacity_;
  const u64 slow_threshold_ns_;
  mutable std::mutex m_;
  std::vector<Trace> ring_;       // ring_[next_ % capacity] is oldest
  std::vector<Trace> slow_ring_;  // same shape, slow requests only
  std::size_t next_ = 0;
  std::size_t slow_next_ = 0;
  u64 slow_count_ = 0;
};

/// The trace the current thread is working on, or nullptr outside a
/// request. Deep layers stamp through this; they never own it.
Trace* active_trace() noexcept;

/// RAII installer of the thread's active trace. Nests by restoring the
/// previous pointer, so an engine running inside a traced request may
/// itself scope a sub-trace if it ever needs to.
class TraceScope {
 public:
  explicit TraceScope(Trace* trace) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Trace* previous_;
};

}  // namespace abc::obs
