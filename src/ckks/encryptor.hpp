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
/// Concurrency model: stream ids come from the *context-wide* atomic
/// counter (CkksContext::reserve_stream_ids), each encryption's randomness
/// is fully determined by its stream id, and the two modes draw errors
/// from disjoint PRNG domains — so any number of threads encrypting
/// through encrypt_with() produce independent, reproducible ciphertexts,
/// and any number of Encryptor instances (or batch engines) sharing a
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
/// encrypt() itself reuses an internal scratch buffer and is therefore not
/// reentrant; parallel callers use one EncryptScratch per worker (see
/// engine/batch_encryptor.hpp).
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

/// Reusable buffers for the encryption hot path: the sampled signed words
/// (errors, ternary mask) and one N-word limb per backend worker for the
/// limb being transformed. Encryption streams one limb at a time (see
/// Encryptor), so after the first encryption the hot path performs no
/// heap allocation beyond the ciphertext components it returns.
class EncryptScratch {
 public:
  explicit EncryptScratch(const CkksContext& ctx);

 private:
  friend class Encryptor;
  std::vector<u64> staging_;  // workers * N words: one limb per lane
  std::vector<i8> mask_;    // ternary u (public-key mode)
  std::vector<i32> err0_;   // e (symmetric) or e0 (public-key)
  std::vector<i32> err1_;   // e1 (public-key mode)
};

class Encryptor {
 public:
  /// Public-key mode.
  Encryptor(std::shared_ptr<const CkksContext> ctx, PublicKey pk);
  /// Symmetric seeded mode.
  Encryptor(std::shared_ptr<const CkksContext> ctx, const SecretKey& sk);

  EncryptMode mode() const noexcept { return mode_; }

  /// Encrypts a plaintext; the ciphertext carries pt's limb count and is in
  /// evaluation form. Not reentrant (uses the internal scratch).
  Ciphertext encrypt(const Plaintext& pt);

  /// Reserves @p count consecutive stream ids for a batch; each id passed
  /// to encrypt_with() yields an independent, reproducible ciphertext.
  /// Forwards to the context-wide counter, so every encryptor and engine
  /// on this context draws from one id sequence and can never collide.
  u64 reserve_stream_ids(u64 count) const {
    return ctx_->reserve_stream_ids(count);
  }

  /// Deterministic encryption under an explicit stream id (a counter
  /// value < 2^31; the secret salt is folded in internally) with external
  /// scratch. Thread-safe: may run concurrently with any other
  /// encrypt_with() call as long as each thread owns its scratch.
  Ciphertext encrypt_with(const Plaintext& pt, u64 stream_id,
                          EncryptScratch& scratch) const;

 private:
  Ciphertext encrypt_public(const Plaintext& pt, u64 id,
                            EncryptScratch& scratch) const;
  Ciphertext encrypt_symmetric(const Plaintext& pt, u64 id,
                               EncryptScratch& scratch) const;

  /// Counter id -> wire stream id with the secret salt in the upper bits.
  u64 salted(u64 id) const noexcept { return (secret_salt_ << 32) | id; }

  std::shared_ptr<const CkksContext> ctx_;
  EncryptMode mode_;
  std::unique_ptr<PublicKey> pk_;
  std::unique_ptr<poly::RnsPoly> sk_eval_;
  u64 secret_salt_ = 0;  // SecretKey::stream_id (or the pk's embedded id)
  EncryptScratch scratch_;
};

}  // namespace abc::ckks
