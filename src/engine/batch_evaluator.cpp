#include "engine/batch_evaluator.hpp"

#include "common/failpoint.hpp"

namespace abc::engine {

BatchEvaluator::BatchEvaluator(std::shared_ptr<const ckks::CkksContext> ctx)
    : core_(ctx), evaluator_(std::move(ctx)), scratch_(core_.ctx()) {}

std::vector<ckks::Ciphertext> BatchEvaluator::rotate_batch(
    std::span<const ckks::Ciphertext> cts, int step,
    const ckks::KeySource& keys) {
  // Pin once for the whole batch, before the fan-out: one lookup (at most
  // one regeneration), and the key cannot be evicted while any item still
  // switches on it.
  const std::shared_ptr<const ckks::KeySwitchKey> key =
      keys.galois_key(step);
  std::vector<ckks::Ciphertext> out(cts.size());
  core_.run(cts.size(), [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kEvaluateItem);
    out[i] = evaluator_.rotate(cts[i], *key, &scratch_.at(worker));
  }).rethrow_first();
  return out;
}

std::vector<ckks::Ciphertext> BatchEvaluator::square_relin_batch(
    std::span<const ckks::Ciphertext> cts, const ckks::KeySource& keys) {
  const std::shared_ptr<const ckks::KeySwitchKey> key = keys.relin_key();
  std::vector<ckks::Ciphertext> out(cts.size());
  core_.run(cts.size(), [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kEvaluateItem);
    ckks::Ciphertext product = evaluator_.mul(cts[i], cts[i]);
    evaluator_.relinearize_inplace(product, *key, &scratch_.at(worker));
    out[i] = std::move(product);
  }).rethrow_first();
  return out;
}

}  // namespace abc::engine
