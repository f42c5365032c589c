#pragma once

/// @file batch_evaluator.hpp
/// Server-side batch evaluation engine: the entry points the serving
/// daemon's workers call per request, built on the same FanOutCore as the
/// client engines. A request is an "ABCB" batch of independent
/// ciphertexts; each item is rotated (hoisted key switch against the
/// tenant's Galois key) or squared-and-relinearized on its own, with one
/// KeySwitchScratch per backend lane.
///
/// Evaluation consumes no PRNG stream, so determinism is purely the
/// partitioning contract: per-item work is independent, results land in
/// input order, and the output bytes are identical for any backend, any
/// worker count — and, one level up, any serving-daemon dispatch order
/// (the soak tests assert daemon responses byte-identical to this engine
/// run serially).
///
/// On a serving daemon each per-core worker owns its own BatchEvaluator
/// over a scalar-backend context, so requests parallelize across cores
/// while each request stays on its core — the per-core session scheduling
/// the ROADMAP's server item calls for.

#include <memory>
#include <span>
#include <vector>

#include "ckks/evaluator.hpp"
#include "ckks/key_source.hpp"
#include "engine/fan_out_core.hpp"

namespace abc::engine {

class BatchEvaluator {
 public:
  explicit BatchEvaluator(std::shared_ptr<const ckks::CkksContext> ctx);

  /// Lanes the underlying backend executes on (and scratch copies held).
  std::size_t workers() const noexcept { return core_.workers(); }

  /// The underlying evaluator, for one-off calls between batches.
  const ckks::Evaluator& evaluator() const noexcept { return evaluator_; }

  /// Rotates cts[i] left by @p step; results in input order. The step's
  /// key is resolved through @p keys and pinned ONCE per batch, before any
  /// item work: a lookup or regeneration failure throws for the whole
  /// batch, and the pin guarantees a caching source cannot evict the key
  /// mid-batch. Eager keys go through ckks::EagerKeySource. Each item must
  /// sit at level <= max_limbs - 1 (the key-switch special prime rule) or
  /// the item throws InvalidArgument, exactly as serially. Every item
  /// runs; with several failures the lowest index's exception is
  /// rethrown (BatchErrorReport::rethrow_first), at any worker count.
  std::vector<ckks::Ciphertext> rotate_batch(
      std::span<const ckks::Ciphertext> cts, int step,
      const ckks::KeySource& keys);

  /// ct[i] <- relinearize(ct[i] * ct[i]): the squaring activation of the
  /// encrypted-inference profile, scale squared, level unchanged. Same
  /// pin-once contract as rotate_batch.
  std::vector<ckks::Ciphertext> square_relin_batch(
      std::span<const ckks::Ciphertext> cts, const ckks::KeySource& keys);

 private:
  FanOutCore core_;
  ckks::Evaluator evaluator_;
  ScratchPool<ckks::KeySwitchScratch> scratch_;  // one per backend worker
};

}  // namespace abc::engine
