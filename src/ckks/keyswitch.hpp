#pragma once

/// @file keyswitch.hpp
/// Server-side key switching: the engine that *applies* the gadget-
/// decomposed keys the client generates (keygen.hpp), closing the
/// client -> server -> client loop. BTS-class servers treat key switching
/// as the dominant primitive; this is its software counterpart, built on
/// the same PolyBackend seam as the rest of the stack so it threads and
/// vectorizes transparently.
///
/// ## Gadget contract (shared with keygen)
///
/// A key digit re-encrypts `g_d * s'` under `s`:
///
///     b_d = -(a_d * s) + e_d + g_d * s'
///
/// with `g_d` the CRT idempotent of limb `d` over the full prime chain
/// (`g_d = 1 mod q_d`, `0 mod q_j`). Switching a component `c` at level
/// `l` accumulates `sum_d ext_d(c) . (b_d, a_d)`; the idempotent identity
/// `sum_d [c]_{q_d} * g_d = c (mod Q_l)` delivers the phase.
///
/// ## Special modulus and noise
///
/// Raw digits `[c]_{q_d}` have magnitude up to `q_d`, so a naive
/// accumulation adds noise ~ `q_d * ||e_d||` — far above the scale. The
/// switcher therefore reserves the *last* RNS prime `P = q_{L-1}` as a
/// key-switch special modulus (the standard hybrid construction): digits
/// are scaled to `ext_d(c) = [P * c]_{q_d}`, the accumulation runs over
/// the extended limb set `{0..l-1, L-1}` (the keys are full-width, so the
/// `P` residues of every digit are already present), and the result is
/// divided by `P` with round-to-nearest. Because `g_d = 0 (mod P)` for
/// every digit in range, the phase comes out as
///
///     out0 + out1 * s  =  c * s'  +  (sum_d ext_d(c) * e_d - eps) / P
///
/// whose error term is ~ `l * N * sigma * q_max / P` — a few bits, since
/// the chain's primes share one magnitude. The client-visible consequence:
/// ciphertexts must sit at most at level `L-1`; rescale or mod-switch
/// fresh full-level ciphertexts once before relinearizing or rotating
/// (Evaluator enforces this).
///
/// ## Digit order of a rotation
///
/// A rotation key-switches `sigma_g(c1)`. The switcher decomposes the
/// *unrotated* `c1` and applies `sigma_g` to every digit in the evaluation
/// domain during accumulation, where the automorphism is a pure
/// permutation of the NTT points. Decomposing `sigma_g(c1)` instead would
/// pick the other (equally valid) integer lift of the digits: a correct
/// but different ciphertext. The order therefore fixes the output bytes,
/// which `KeySwitchGolden` (tests/test_wire_golden.cpp) pins.
///
/// Determinism: every stage partitions work per (digit, limb) or per limb
/// with no cross-worker accumulation, so results are bit-identical for any
/// backend and worker count — the repo-wide contract.

#include <memory>
#include <optional>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"
#include "ckks/keygen.hpp"
#include "rns/modulus.hpp"

namespace abc::ckks {

/// Reusable buffers for the key-switching hot path; after the first call
/// at a given level no stage allocates. One per concurrent caller (the
/// switcher itself is stateless and thread-safe against distinct scratch
/// objects); each server worker keeps one per context.
struct KeySwitchScratch {
  std::vector<u64> w;         // [level][n] scaled digits (P*c mod q_d), coeff
  std::vector<u64> digits;    // [level][level+1][n] expanded digits, eval
  std::vector<u64> acc_p0;    // [n] special-limb accumulator of out0
  std::vector<u64> acc_p1;    // [n] special-limb accumulator of out1
  std::vector<u64> tmp;       // [workers][n] per-worker staging
  std::vector<u32> perm;      // eval-domain automorphism table
  std::optional<poly::RnsPoly> work;  // component staging (INTT / sigma(c0))
};

/// Permutation table applying sigma_g directly in the evaluation domain:
/// position p of an NTT-form limb holds the evaluation at
/// psi^{2*bitrev(p)+1}, and the automorphism just relabels evaluation
/// points, so `out[p] = in[table[p]]` with no sign corrections. Bit-exact
/// counterpart of the coefficient-domain map X -> X^g followed by the NTT
/// (tested in tests/test_keyswitch.cpp). The one automorphism in src/:
/// Galois keygen and rotation both use it. Requires an odd
/// @p galois_elt < 2N.
void build_galois_eval_table(int log_n, u32 galois_elt,
                             std::vector<u32>& table);

/// dst = sigma(src) in the evaluation domain via a prebuilt table; dst is
/// reset to src's limb count. Limbs fan out across the backend.
void apply_galois_eval(const poly::RnsPoly& src, std::span<const u32> table,
                       poly::RnsPoly& dst);

class KeySwitcher {
 public:
  explicit KeySwitcher(std::shared_ptr<const CkksContext> ctx);

  /// Index of the reserved special prime (the chain's last limb).
  std::size_t special_prime_index() const noexcept { return special_; }

  /// Highest level (limb count) a switchable ciphertext may have.
  std::size_t max_switchable_limbs() const noexcept { return special_; }

  /// Switches @p c_coeff (coefficient domain, limbs <=
  /// max_switchable_limbs()) from the key's source secret s' to s:
  /// out0/out1 come out as level-limb evaluation-form polynomials with
  /// `out0 + out1*s ~= c*s'` (noise as documented above). A non-empty
  /// @p eval_perm applies sigma to every digit in the evaluation domain
  /// (the rotation path, see "Digit order" above). Every argument check
  /// runs before anything is written; @p out1 may alias @p c_coeff, which
  /// is fully consumed before the outputs are written.
  void switch_key(const poly::RnsPoly& c_coeff, const KeySwitchKey& key,
                  std::span<const u32> eval_perm, KeySwitchScratch& scratch,
                  poly::RnsPoly& out0, poly::RnsPoly& out1) const;

 private:
  /// Scaled digits of @p c_coeff, RNS-expanded and forward-transformed
  /// into scratch.digits.
  void decompose(const poly::RnsPoly& c_coeff,
                 KeySwitchScratch& scratch) const;
  /// Accumulates the staged digits of a @p level-limb input against
  /// @p key and divides by the special modulus.
  void accumulate(std::size_t level, const KeySwitchKey& key,
                  std::span<const u32> eval_perm, KeySwitchScratch& scratch,
                  poly::RnsPoly& out0, poly::RnsPoly& out1) const;

  std::shared_ptr<const CkksContext> ctx_;
  std::size_t special_ = 0;            // index of P = q_{L-1}
  std::vector<rns::ShoupMul> p_mod_;   // P mod q_d, digit scaling
  std::vector<rns::ShoupMul> p_inv_;   // P^{-1} mod q_j, mod-down
  std::vector<u64> half_mod_;          // (P >> 1) mod q_j, rounding
};

}  // namespace abc::ckks
