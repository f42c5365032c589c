#pragma once

/// @file item_loop.hpp
/// The one batch loop of the engine layer. Every batch — ClientSession's
/// encrypt, decrypt and verify, and the Server's evaluate ops — runs its
/// items in input order on the calling thread. The parallelism lives one
/// level down: each item's limbs (and key-switch digits) fan out through
/// the context backend's parallel_for, so a batch on a ScalarBackend, a
/// 1-thread pool and an 8-thread pool produces the same bytes.
///
/// The loop isolates: each item crosses its failpoint (engine.*_item) and
/// runs under its own catch, every item runs even when a neighbour fails,
/// and outcomes land in a BatchErrorReport in input order. A throwing
/// batch operation is run_items() followed by
/// BatchErrorReport::rethrow_first(), which rethrows the lowest-index
/// failure with its original type. The report-mode calls (ClientSession's
/// encrypt and verify, which round_trip_with_retry reads) return the
/// report instead. Randomness-consuming batches reserve their stream-id
/// block before the loop, so the surviving items of a faulty batch are
/// bit-identical to the same items of a clean one.

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace abc::engine {

/// Outcome of one batch item.
struct ItemStatus {
  bool ok = true;
  std::string error;             // what() of the item's exception; empty when ok
  std::exception_ptr exception;  // the item's original exception; null when ok
};

/// Input-order per-item error report of a batch call. Successes are
/// preserved, and failed slots of the paired output container are
/// well-defined-empty.
struct BatchErrorReport {
  std::vector<ItemStatus> items;  // input order, one per batch item
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::string first_error;  // message of the lowest-index failure

  bool ok() const noexcept { return failed == 0; }
  std::size_t size() const noexcept { return items.size(); }

  /// Rethrows the lowest-index failure's original exception; returns
  /// normally when every item succeeded.
  void rethrow_first() const;
};

/// Runs job(i) for every i in [0, count), in order on the calling thread,
/// each after crossing failpoint @p point and under its own catch, and
/// reports every item's outcome. Each item is counted in the
/// engine.items_processed / engine.items_failed / engine.item_ns metrics.
BatchErrorReport run_items(std::size_t count, const char* point,
                           const std::function<void(std::size_t)>& job);

}  // namespace abc::engine
