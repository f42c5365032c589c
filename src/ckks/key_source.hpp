#pragma once

/// @file key_source.hpp
/// The key lookup seam between the evaluator and whoever owns the key
/// material. The eager path (client-side GaloisKeys/RelinKey structs held
/// fully expanded in memory) and the serving daemon's on-demand path
/// (seed-compressed records expanded into a bounded shared cache,
/// src/server/key_cache.hpp) implement the same interface, so every
/// key-consuming operation has exactly one code path — which is what makes
/// cached responses bit-identical to eager ones by construction.
///
/// Lookup returns a shared_ptr acting as a *pin*: the key stays valid (and,
/// for a caching source, ineligible for eviction) for as long as the
/// handle is held. Eager sources hand out non-owning aliases (the caller
/// already guarantees the struct outlives the call, as before); the key
/// cache hands out handles whose destructor unpins the cache entry.
///
/// has_galois_key() is the cheap fail-fast probe: it must not regenerate
/// or pin anything, so rotate_many can validate its whole step set before
/// decomposing — and then pin keys one at a time, keeping its cache
/// footprint at one key no matter how many rotations are requested.

#include <memory>

#include "ckks/keygen.hpp"

namespace abc::ckks {

class KeySource {
 public:
  virtual ~KeySource() = default;

  /// Pinned handle to the Galois key covering @p step (matched modulo the
  /// slot count, exactly like GaloisKeys::key_for). Throws InvalidArgument
  /// when no registered key covers the step; may also propagate a
  /// regeneration failure (typed, per-request) from an on-demand source.
  virtual std::shared_ptr<const KeySwitchKey> galois_key(int step) const = 0;

  /// Pinned handle to the relinearization key; throws InvalidArgument when
  /// the source has none.
  virtual std::shared_ptr<const KeySwitchKey> relin_key() const = 0;

  /// True when galois_key(step) would resolve — without regenerating,
  /// pinning, or throwing.
  virtual bool has_galois_key(int step) const noexcept = 0;
};

/// KeySource over fully expanded key structs. Non-owning: the referenced
/// GaloisKeys/RelinKey must outlive every handle this source returns (the
/// same lifetime contract the evaluator's reference-taking overloads
/// have; Evaluator::rotate_many's GaloisKeys overload wraps this adapter).
class EagerKeySource final : public KeySource {
 public:
  EagerKeySource(const GaloisKeys* gks, const RelinKey* rlk)
      : gks_(gks), rlk_(rlk) {}

  std::shared_ptr<const KeySwitchKey> galois_key(int step) const override {
    ABC_CHECK_ARG(gks_ != nullptr, "this key source has no Galois keys");
    // Aliasing a default-constructed owner: a valid non-owning shared_ptr
    // (no control block, no atomics) — the pin is a no-op by design here.
    return std::shared_ptr<const KeySwitchKey>(
        std::shared_ptr<const void>(), &gks_->key_for(step));
  }

  std::shared_ptr<const KeySwitchKey> relin_key() const override {
    ABC_CHECK_ARG(rlk_ != nullptr, "this key source has no relin key");
    return std::shared_ptr<const KeySwitchKey>(std::shared_ptr<const void>(),
                                               &rlk_->key);
  }

  bool has_galois_key(int step) const noexcept override {
    return gks_ != nullptr && gks_->find(step) != nullptr;
  }

 private:
  const GaloisKeys* gks_;
  const RelinKey* rlk_;
};

}  // namespace abc::ckks
