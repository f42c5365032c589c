#pragma once

/// @file keygen.hpp
/// RLWE key generation for the client: ternary secret, discrete-Gaussian
/// error, and a public key whose "a" half is uniform. All randomness
/// derives from the context's 128-bit seed through domain-separated
/// ChaCha20 streams — the software mirror of the paper's on-chip PRNG that
/// generates "masks, errors, and keys" (Sec. IV-B).

#include <memory>
#include <span>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"

namespace abc::ckks {

/// Secret key, stored in evaluation (NTT) form over all limbs, immutable
/// and shared by every copy, Encryptor and Decryptor. stream_id records
/// which kSecretKey stream produced it; everything derived from this
/// secret (public key, switching keys) folds the id into its own stream
/// ids, so key material for *different* secrets can never alias a
/// keystream (equal randomness under different secrets would let
/// b-differences cancel the errors and leak the secrets).
struct SecretKey {
  std::shared_ptr<const poly::RnsPoly> s;
  u64 stream_id = 0;
};

/// Public key (b, a) with b = -(a*s) + e, both in evaluation form. The
/// uniform half is regenerable from (seed, kPublicA, stream_id), which is
/// what seed-compressed serialization ships instead of `a`.
struct PublicKey {
  poly::RnsPoly b;
  poly::RnsPoly a;
  u64 stream_id = 0;
};

/// PRNG domain tags, keeping every consumer on a disjoint stream. Each
/// encryption mode owns its error domain outright (public-key errors live
/// in kEncryptError at stream ids 2*id and 2*id+1, symmetric errors in
/// kSymmetricError at stream id), so concurrent batched encrypts can never
/// reuse a stream across modes no matter how the counter advances.
/// Key-switching keys follow the same pattern per kind: digit d of a key
/// with base stream id k draws its uniform half from (kRelinA | kGaloisA,
/// k + d) and its error from the matching error domain at the same id.
/// The full domain -> consumer map is tabulated in docs/ARCHITECTURE.md.
enum class PrngDomain : u32 {
  kSecretKey = 1,
  kPublicA = 2,
  kKeygenError = 3,
  kEncryptMask = 4,
  kEncryptError = 5,   // public-key encryption errors (e0, e1)
  kSymmetricA = 6,
  kSymmetricError = 7, // symmetric seeded encryption errors
  kRelinA = 8,         // relinearization key uniform halves
  kRelinError = 9,
  kGaloisA = 10,       // Galois (rotation) key uniform halves
  kGaloisError = 11,
};

/// Gadget(RNS)-decomposed key-switching key re-encrypting a source key s'
/// under the secret s: one (b_d, a_d) pair per digit d, digit = RNS limb,
/// all full-limb evaluation-form polynomials with
///
///     b_d = -(a_d * s) + e_d + g_d * s'
///
/// where g_d = (Q/q_d) * ((Q/q_d)^{-1} mod q_d) is the CRT idempotent of
/// limb d (g_d = 1 mod q_d, 0 mod q_j for j != d). A server switches a
/// component c from s' to s by accumulating sum_d ext([c]_{q_d}) . ksk_d;
/// the decomposition identity sum_d [c]_{q_d} * g_d = c (mod Q) makes the
/// phase come out right while each digit's noise growth stays bounded by
/// q_d. Every a_d is regenerable from (seed, a-domain of `kind`,
/// base_stream_id + d) — seed-compressed serialization ships only the b
/// halves plus base_stream_id (src/ckks/serialize.hpp).
struct KeySwitchKey {
  enum class Kind : u8 {
    kRelin = 0,   // s' = s^2 (relinearize unreduced products)
    kGalois = 1,  // s' = sigma_g(s) (slot rotations)
  };

  Kind kind = Kind::kRelin;
  u32 galois_elt = 0;      // automorphism X -> X^elt; 0 for relin keys
  u64 base_stream_id = 0;  // digit d's uniform half uses stream id base + d
  std::vector<poly::RnsPoly> b;  // [digits], shipped
  std::vector<poly::RnsPoly> a;  // [digits], regenerable

  std::size_t digits() const noexcept { return b.size(); }
};

/// Relinearization key: switches s^2 back to s after a ciphertext product.
struct RelinKey {
  KeySwitchKey key;
};

/// Index of the first entry of @p steps that is the same rotation as
/// @p step — matched modulo @p slots (exactly when slots is 0) — or
/// steps.size() when none is. The one step-matching rule of every key
/// lookup: GaloisKeys::key_for and the daemon's compressed records.
std::size_t find_rotation_step(std::span<const int> steps, int step,
                               std::size_t slots) noexcept;

/// Galois keys for a set of slot-rotation steps (step > 0 rotates left;
/// steps are reduced modulo the slot count). keys[i] belongs to steps[i].
struct GaloisKeys {
  std::vector<int> steps;
  std::vector<KeySwitchKey> keys;
  std::size_t slots = 0;  // set by the generators; 0 = raw step matching

  /// The key for @p step, matching modulo the slot count (step 1 and
  /// step 1 - slots are the same rotation and resolve to the same key);
  /// throws InvalidArgument when absent.
  const KeySwitchKey& key_for(int step) const;
};

/// Galois group element 3^step mod 2N driving a left rotation by @p step
/// slots (3 is the canonical-embedding generator the encoder's slot
/// ordering is built on, see transform/dwt.hpp). Throws when the step
/// reduces to 0 mod N/2 (no rotation).
u32 galois_element(int step, std::size_t n);

/// Uniform-half / error PRNG domains for a key kind (serialization uses
/// this to regenerate compressed keys).
PrngDomain ksk_a_domain(KeySwitchKey::Kind kind);
PrngDomain ksk_error_domain(KeySwitchKey::Kind kind);

/// Stream-domain word for a switching key's PRNG draws: the base domain
/// tag in the low byte, the Galois element above it. Salting the domain
/// by the element is load-bearing: id counters are per-generator, so two
/// independent generators both hand out base_stream_id 0 — if Galois keys
/// for *different* rotations shared a keystream, their errors would
/// cancel out of b1_d - b2_d and hand a server an error-free linear
/// relation in the secret. Relin keys (elt 0) use the raw domain.
///
/// The second aliasing axis — same kind/element but different *secrets* —
/// is closed by the stream ids instead: ksk_base_stream_id folds the
/// secret's id into the upper bits, so only an identical (secret, kind,
/// element, counter) tuple reproduces a stream, and that regenerates the
/// identical key (deterministic regeneration, harmless).
u32 ksk_stream_domain(PrngDomain base, u32 galois_elt);

/// Base stream id for a key derived from the secret with id @p secret_id
/// (SecretKey::stream_id) at local counter value @p counter: the secret id
/// occupies the upper bits, the counter the lower 32. Uniform fills later
/// fold the limb index into the low 16 bits of the shifted id, leaving 16
/// bits of secret-id headroom; both bounds are enforced here because
/// overflow would wrap two different secrets onto one keystream — exactly
/// the aliasing this layout exists to prevent. (The counter bound leaves
/// 2^16 headroom for the per-digit offsets added to the base.)
inline u64 ksk_base_stream_id(u64 secret_id, u64 counter) {
  ABC_CHECK_ARG(secret_id < (u64{1} << 16),
                "secret stream id exceeds the 16-bit salt budget");
  ABC_CHECK_ARG(counter < 0xffff0000ull,
                "key counter exceeds the 32-bit stream budget");
  return (secret_id << 32) | counter;
}

class KeyGenerator {
 public:
  explicit KeyGenerator(std::shared_ptr<const CkksContext> ctx);

  /// Fresh uniform-ternary secret (evaluation form).
  SecretKey secret_key();

  /// Public key for @p sk: a uniform per limb (sampled directly in the
  /// evaluation domain — uniformity is domain-invariant), e ~ DG(sigma)
  /// transformed, b = -(a*s) + e.
  PublicKey public_key(const SecretKey& sk);

  // Switching keys. A key reserves its counter block (one id per digit)
  // before any work, then its gadget digits fan out across the context
  // backend's workers, one SamplerScratch per worker. Every digit's
  // randomness depends only on (seed, kind, element, stream id), so keys
  // are bit-identical for any backend and any worker count. A throwing
  // digit (including an armed engine.keygen_digit failpoint) fails the
  // whole call; no half-written key is returned.

  /// Relinearization key (s^2 -> s), one gadget digit per RNS limb.
  RelinKey relin_key(const SecretKey& sk);

  /// Galois key for one rotation step (sigma_g(s) -> s).
  KeySwitchKey galois_key(const SecretKey& sk, int step);

  /// Galois keys for every step in @p steps, counter blocks reserved in
  /// step order. One inverse NTT of s serves every rotated secret; then
  /// all (step, digit) pairs fan out as one flat work list, so with S
  /// steps and D digits each of the S*D items can land on its own worker.
  GaloisKeys galois_keys(const SecretKey& sk, std::span<const int> steps);

 private:
  /// Key metadata plus uninitialized digit polynomials, with the key's
  /// secret-salted counter block reserved.
  KeySwitchKey make_key_shell(KeySwitchKey::Kind kind, u32 galois_elt,
                              const SecretKey& sk);
  /// Generates every digit of every key in @p keys across the backend;
  /// keys[k] switches from @p s_primes[k] (evaluation form) to sk.
  void generate_digits(const SecretKey& sk, std::span<KeySwitchKey> keys,
                       std::span<const poly::RnsPoly> s_primes);

  std::shared_ptr<const CkksContext> ctx_;
  // Secret ids come from the context-wide counter (reserve_secret_ids);
  // the derived-key counters below stay per-instance — their streams are
  // salted by the secret id, so the same (secret, kind, element, counter)
  // tuple regenerates the *identical* key (harmless), and a fresh
  // instance reproduces the keys of another that counted from 0.
  u64 pk_counter_ = 0;
  u64 ksk_counter_ = 0;  // each switching key reserves `digits` ids
};

/// Reusable sampler staging buffers for allocation-free hot paths; one per
/// backend worker when KeyGenerator fans key digits out.
struct SamplerScratch {
  std::vector<i8> ternary;
  std::vector<i32> wide;
};

/// Fills @p dst with limb @p limb of a uniform polynomial: the (domain,
/// stream_id, limb) stream reduced mod q_limb. Each limb owns its stream,
/// so limbs can be filled in any order or on any worker.
void fill_uniform_limb(const CkksContext& ctx, std::span<u64> dst,
                       std::size_t limb, PrngDomain domain, u64 stream_id);

/// Fills @p dst (evaluation domain) with per-limb uniform values drawn from
/// the seed/stream (fill_uniform_limb over every limb) — shared by key
/// generation and encryption.
void fill_uniform_eval(const CkksContext& ctx, poly::RnsPoly& dst,
                       PrngDomain domain, u64 stream_id);

/// Draws the N signed coefficients of a ternary (resp. discrete-Gaussian)
/// polynomial from the (domain, stream_id) stream into @p out, resized to
/// N. These are the words fill_ternary_coeff / fill_gaussian_coeff
/// RNS-expand; the encryptor lifts them one limb at a time instead.
void sample_ternary(const CkksContext& ctx, PrngDomain domain, u64 stream_id,
                    std::vector<i8>& out);
void sample_gaussian(const CkksContext& ctx, PrngDomain domain, u64 stream_id,
                     std::vector<i32>& out);

/// Samples a ternary polynomial into coefficient form.
void fill_ternary_coeff(const CkksContext& ctx, poly::RnsPoly& dst,
                        PrngDomain domain, u64 stream_id,
                        SamplerScratch* scratch = nullptr);

/// Samples a discrete-Gaussian error polynomial into coefficient form.
void fill_gaussian_coeff(const CkksContext& ctx, poly::RnsPoly& dst,
                         PrngDomain domain, u64 stream_id,
                         SamplerScratch* scratch = nullptr);

}  // namespace abc::ckks
