#pragma once

/// @file fan_out_core.hpp
/// Shared deterministic fan-out core for every batch engine. The engines
/// (BatchEncryptor, BatchDecryptor, BatchEvaluator) used to each
/// reimplement the same machinery; it lives here exactly once:
///
///  * **Contiguous stream-id reservation.** Randomness-consuming work
///    reserves its id block from the *context-wide* atomic counter
///    (CkksContext::reserve_stream_ids) BEFORE any fan-out, so scheduling
///    cannot change which item gets which stream — and two engines sharing
///    a context can never alias a stream id, no matter how their calls
///    interleave.
///  * **Per-worker scratch pools** (ScratchPool<S>): one scratch per
///    backend lane, indexed by the worker id parallel_for hands each job,
///    so hot paths stop allocating after warm-up without any locking.
///  * **The bit-identical-at-any-worker-count contract.** Work items are
///    independent (parallelism only partitions, never reorders a
///    reduction) and any randomness is fully determined by the reserved
///    (domain, stream id) — so a ScalarBackend run, a 1-thread pool and an
///    8-thread pool all produce the same bytes. Engines inherit the
///    contract by routing every fan-out through run()/run_with_ids().
///  * **Failure isolation.** There is one fan-out, and it isolates: each
///    job runs under its own catch, every item runs even when a neighbour
///    fails, and outcomes land in a BatchErrorReport in input order. A
///    throwing operation is run() followed by
///    BatchErrorReport::rethrow_first(), which rethrows the lowest-index
///    failure with its original type, so the exception is the same at any
///    worker count. The two report-mode overloads (encrypt_batch and
///    verify_batch, which ClientSession::round_trip_with_retry reads)
///    return the report instead; stream ids are reserved identically in
///    both modes, so the surviving items of a faulty batch are
///    bit-identical to the same items of a clean one.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ckks/context.hpp"

namespace abc::engine {

/// Outcome of one batch item in a fan-out.
struct ItemStatus {
  bool ok = true;
  std::string error;             // what() of the item's exception; empty when ok
  std::exception_ptr exception;  // the item's original exception; null when ok
};

/// Input-order per-item error report of a batch call. Successes are
/// preserved, failed slots of the paired output container are
/// well-defined-empty, and the aggregates are schedule-independent.
struct BatchErrorReport {
  std::vector<ItemStatus> items;  // input order, one per batch item
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::string first_error;  // message of the lowest-index failure

  bool ok() const noexcept { return failed == 0; }
  std::size_t size() const noexcept { return items.size(); }

  /// Serial fold in input order: first_error is the lowest-index failure
  /// no matter which worker finished first.
  static BatchErrorReport fold(std::vector<ItemStatus> items);

  /// Rethrows the lowest-index failure's original exception; returns
  /// normally when every item succeeded.
  void rethrow_first() const;
};

class FanOutCore {
 public:
  explicit FanOutCore(std::shared_ptr<const ckks::CkksContext> ctx);

  const ckks::CkksContext& ctx() const noexcept { return *ctx_; }

  /// Lanes the underlying backend executes on (scratch pools match this).
  std::size_t workers() const noexcept { return workers_; }

  /// Reserves @p count consecutive ids from the context-wide counter.
  u64 reserve_stream_ids(u64 count) const {
    return ctx_->reserve_stream_ids(count);
  }

  using Job = std::function<void(std::size_t index, std::size_t worker)>;
  using IdJob =
      std::function<void(std::size_t index, std::size_t worker, u64 id)>;

  /// Executes job(i, worker) for every i in [0, count) across the backend,
  /// each under its own catch, and reports every item's outcome in input
  /// order. Jobs that complete are untouched by jobs that fail.
  BatchErrorReport run(std::size_t count, const Job& job) const;

  /// Reserves @p count contiguous stream ids up front, then runs
  /// job(i, worker, base + i) — base + i for every item, failed or not.
  BatchErrorReport run_with_ids(std::size_t count, const IdJob& job) const;

 private:
  std::shared_ptr<const ckks::CkksContext> ctx_;
  std::size_t workers_;
};

/// One scratch object per backend lane. S is constructed from the context
/// when such a constructor exists (EncryptScratch, DecryptScratch) and
/// default-constructed otherwise (KeySwitchScratch).
template <class S>
class ScratchPool {
 public:
  explicit ScratchPool(const ckks::CkksContext& ctx) {
    const std::size_t lanes = ctx.backend().workers();
    pool_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      if constexpr (std::is_constructible_v<S, const ckks::CkksContext&>) {
        pool_.emplace_back(ctx);
      } else {
        pool_.emplace_back();
      }
    }
  }

  std::size_t size() const noexcept { return pool_.size(); }
  S& at(std::size_t worker) { return pool_.at(worker); }

 private:
  std::vector<S> pool_;
};

}  // namespace abc::engine
