#pragma once

/// @file encryptor.hpp
/// Client-side encryption, paper Fig. 2a "Encoding + Encrypt". Two modes:
///
///  * Public-key: ct = (b*u + m + e0, a*u + e1) with ternary mask u. Costs
///    3 NTT passes per limb (NTT(u), NTT(m + e0), NTT(e1)).
///  * Symmetric seeded: ct = (-(a*s) + m + e, a) with a regenerated from a
///    PRNG stream id, so only the first component is materialized/shipped.
///    Costs 1 NTT pass per limb — the profile matching the paper's
///    27.0 MOPs encode+encrypt budget (Fig. 2b).
///
/// The per-limb NTT-pass count is exported so the accelerator scheduler
/// (src/core) accounts the same work the software executes.
///
/// Stream ids: every encryption's randomness is fully determined by its
/// stream id, the ids come from the *context-wide* atomic counter
/// (CkksContext::reserve_stream_ids), and the two modes draw errors from
/// disjoint PRNG domains — so any number of Encryptor instances sharing a
/// context can never replay each other's streams. Stream ids are
/// additionally salted with the key's secret id (upper 32 bits, mirroring
/// ksk_base_stream_id): two contexts' encryptors for *different* secrets
/// both count from 0 — an unsalted shared stream would give their first
/// ciphertexts identical (a, e) material, letting c0 differences cancel
/// the errors and leak a linear relation in the secrets.
///
/// What the shared counter does NOT cover: two *contexts* for the same
/// seed and secret (a process restart, a second process) both count from
/// 0 and therefore replay the same streams — encrypting *different*
/// messages under a replayed stream leaks the plaintext difference. The
/// whole stack is deliberately deterministic from the 128-bit seed (the
/// paper's on-chip PRNG model), so stream-id uniqueness across context
/// lifetimes is the caller's responsibility: persist the counter, or
/// dedicate a disjoint secret (and thereby salt) per component.
///
/// An Encryptor reuses one internal scratch and is therefore not
/// reentrant: one thread drives it, and the parallelism is inside each
/// encryption (the limb fan-out below). A batch is a loop over its
/// plaintexts under one reserved block of stream ids (encrypt_plaintexts).
///
/// Datapath: both modes stream limbs the way the paper's client does
/// (PRNG -> NTT -> MAC, Sec. IV). The signed error (and mask) words are
/// sampled once; then one PolyBackend::parallel_for over the limbs lifts
/// them into limb i (m added in the same pass), runs the forward NTT,
/// fills a_i from its own stream and multiply-accumulates straight into
/// output limb i. The keys are read in place, the working set is one limb
/// per worker, and the result is bit-identical to the whole-polynomial
/// chain (fill, expand, add, to_eval, combine) at any worker count.

#include <memory>
#include <span>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"
#include "ckks/keygen.hpp"

namespace abc::ckks {

enum class EncryptMode {
  kPublicKey,
  kSymmetricSeeded,
};

/// NTT passes per limb per encryption for each mode (scheduler input).
constexpr int ntt_passes_per_limb(EncryptMode mode) noexcept {
  return mode == EncryptMode::kPublicKey ? 3 : 1;
}

class Encryptor {
 public:
  /// Public-key mode.
  Encryptor(std::shared_ptr<const CkksContext> ctx, PublicKey pk);
  /// Symmetric seeded mode.
  Encryptor(std::shared_ptr<const CkksContext> ctx, const SecretKey& sk);

  EncryptMode mode() const noexcept { return mode_; }

  /// Encrypts a plaintext under the next stream id; the ciphertext carries
  /// pt's limb count and is in evaluation form.
  Ciphertext encrypt(const Plaintext& pt);

  /// Deterministic encryption under an explicit stream id (a counter value
  /// from reserve_stream_ids, < 2^31; the secret salt is folded in
  /// internally).
  Ciphertext encrypt(const Plaintext& pt, u64 stream_id);

  /// Encrypts plaintexts[i] under id base + i of one reserved block, in
  /// input order. The first failing item's exception propagates — the
  /// lowest index — and the block stays consumed either way.
  std::vector<Ciphertext> encrypt_plaintexts(
      std::span<const Plaintext> plaintexts);

  /// Reserves @p count consecutive stream ids. Forwards to the
  /// context-wide counter, so every encryptor on this context draws from
  /// one id sequence and can never collide.
  u64 reserve_stream_ids(u64 count) const {
    return ctx_->reserve_stream_ids(count);
  }

 private:
  /// The sampled signed words (errors, ternary mask) and one N-word limb
  /// per backend worker for the limb being transformed. Encryption streams
  /// one limb at a time, so after the first encryption the hot path
  /// performs no heap allocation beyond the ciphertext components it
  /// returns.
  struct Scratch {
    std::vector<u64> staging;  // workers * N words: one limb per lane
    std::vector<i8> mask;      // ternary u (public-key mode)
    std::vector<i32> err0;     // e (symmetric) or e0 (public-key)
    std::vector<i32> err1;     // e1 (public-key mode)
  };

  Ciphertext encrypt_public(const Plaintext& pt, u64 id);
  Ciphertext encrypt_symmetric(const Plaintext& pt, u64 id);

  /// Counter id -> wire stream id with the secret salt in the upper bits.
  u64 salted(u64 id) const noexcept { return (secret_salt_ << 32) | id; }

  std::shared_ptr<const CkksContext> ctx_;
  EncryptMode mode_;
  std::unique_ptr<PublicKey> pk_;
  std::unique_ptr<poly::RnsPoly> sk_eval_;
  u64 secret_salt_ = 0;  // SecretKey::stream_id (or the pk's embedded id)
  Scratch scratch_;
};

}  // namespace abc::ckks
