#pragma once

/// @file batch_keygen.hpp
/// Multi-threaded client key-generation engine: fans the gadget digits of
/// relinearization and Galois keys across the execution backend's workers.
/// This is the second half of the paper's client workload (Sec. IV,
/// Fig. 5a): besides encode+encrypt, the client generates the switching-key
/// material a server needs for bootstrappable parameters, all derived from
/// the on-chip seed — BTS/ARK-class servers are fed seed-compressed keys,
/// so the client-side cost is exactly this generation pass.
///
/// Determinism comes from engine::FanOutCore: every digit's randomness is
/// fully determined by its (domain, stream id) pair, and a key reserves
/// its contiguous id block from the context-wide counter before the
/// fan-out — so keys are bit-identical for any backend and any worker
/// count, the same contract BatchEncryptor gives for ciphertexts, and two
/// key engines sharing a context can never alias a stream id.
///
/// Each worker owns a SamplerScratch; the per-digit hot path allocates
/// only the key polynomials it returns — the -(a*s) term is a fused
/// multiply-add against a hoisted -s, with no product buffer.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ckks/keygen.hpp"
#include "engine/fan_out_core.hpp"

namespace abc::engine {

class BatchKeyGenerator {
 public:
  BatchKeyGenerator(std::shared_ptr<const ckks::CkksContext> ctx,
                    const ckks::SecretKey& sk);

  /// Lanes the underlying backend executes on (and scratch copies held).
  std::size_t workers() const noexcept { return core_.workers(); }

  /// Relinearization key (s^2 -> s); digits generated across the workers.
  ckks::RelinKey relin_key();

  /// Galois keys for @p steps. Rotated secrets are prepared per step, then
  /// all (step, digit) pairs fan out as one flat work list — with S steps
  /// and D digits every one of the S*D independent items can land on its
  /// own worker.
  ckks::GaloisKeys galois_keys(std::span<const int> steps);

  // -- per-item-fault mode ----------------------------------------------------
  // A key is only usable if every gadget digit generated, so the report
  // granularity is one item per *key*: per digit for relin (one key, D
  // digit items), per step for galois (a step fails if any of its digits
  // failed, reporting the lowest failed digit's error). A failed key comes
  // back with b/a cleared — well-defined-empty, digits() == 0 — never a
  // half-written digit list. The throwing overloads above run these bodies
  // and then rethrow the lowest-index failure
  // (BatchErrorReport::rethrow_first).

  ckks::RelinKey relin_key(BatchErrorReport& report);

  ckks::GaloisKeys galois_keys(std::span<const int> steps,
                               BatchErrorReport& report);

  /// Reserves @p count consecutive key counter values from the
  /// context-wide counter (the secret id is folded into the resulting
  /// base via ckks::ksk_base_stream_id).
  u64 reserve_stream_ids(u64 count) const {
    return core_.reserve_stream_ids(count);
  }

 private:
  ckks::KeySwitchKey make_key_shell(ckks::KeySwitchKey::Kind kind,
                                    u32 galois_elt);

  FanOutCore core_;
  poly::RnsPoly s_eval_;      // secret, evaluation form
  poly::RnsPoly s_neg_eval_;  // -s, the fma operand of every digit
  // s^2, computed on first relin_key() (a Galois-only caller never pays
  // the full-width multiply) and shared by every later call.
  std::optional<poly::RnsPoly> s2_eval_;
  u64 secret_id_;             // SecretKey::stream_id, salts every base id
  ScratchPool<ckks::SamplerScratch> scratch_;  // one per backend worker
};

}  // namespace abc::engine
