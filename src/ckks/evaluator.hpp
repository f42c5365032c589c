#pragma once

/// @file evaluator.hpp
/// Homomorphic evaluator: addition, plaintext multiplication, ciphertext
/// multiplication, RNS rescaling — and, since the key-switching subsystem
/// landed (keyswitch.hpp), the operations that consume the client's
/// switching keys: relinearization of 3-component products and slot
/// rotations. Both land on the one KeySwitcher::switch_key call.
///
/// Level discipline: the last RNS prime is reserved as the key-switch
/// special modulus, so relinearize/rotate require ciphertexts at most at
/// level max_limbs - 1 — rescale or mod-switch a fresh full-level
/// ciphertext once first (the natural first step of any computation).

#include <memory>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"
#include "ckks/keyswitch.hpp"

namespace abc::ckks {

class Evaluator {
 public:
  explicit Evaluator(std::shared_ptr<const CkksContext> ctx);

  /// Component-wise addition; scales and limb counts must match.
  Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;

  /// ct + encode(pt): pt is transformed to evaluation form internally.
  Ciphertext add_plain(const Ciphertext& ct, const Plaintext& pt) const;

  /// ct * encode(pt): dyadic product against the transformed plaintext;
  /// the result scale is the product of both scales (rescale afterwards).
  Ciphertext mul_plain(const Ciphertext& ct, const Plaintext& pt) const;

  /// Full ciphertext product without relinearization: (c0, c1) x (d0, d1)
  /// -> (c0 d0, c0 d1 + c1 d0, c1 d1). Follow with relinearize_inplace to
  /// return to 2 components.
  Ciphertext mul(const Ciphertext& a, const Ciphertext& b) const;

  /// Switches the s^2 component of a 3-component product back to s:
  /// (c0 + ks0, c1 + ks1) with (ks0, ks1) = KeySwitch(c2, rlk). Scale and
  /// level are unchanged; noise grows by the key-switch bound
  /// (noise.hpp's keyswitch_noise_bound). @p scratch reuses buffers across
  /// calls (null allocates locally).
  void relinearize_inplace(Ciphertext& ct, const RelinKey& rlk,
                           KeySwitchScratch* scratch = nullptr) const;

  /// relinearize_inplace with a pre-resolved key (must be Kind::kRelin).
  /// This is the single underlying code path: the RelinKey overload and
  /// the server (which pins a cached key, then lands here) share it, which
  /// is what makes on-demand-regenerated keys bit-identical to eager ones
  /// by construction. Throws only before @p ct is modified.
  void relinearize_inplace(Ciphertext& ct, const KeySwitchKey& rlk,
                           KeySwitchScratch* scratch = nullptr) const;

  /// Rotates slots left by @p step (negative steps rotate right) using the
  /// matching Galois key: both components pass through sigma_g in the
  /// evaluation domain, and sigma_g(c1) is key-switched back to s.
  Ciphertext rotate(const Ciphertext& ct, int step, const GaloisKeys& gks,
                    KeySwitchScratch* scratch = nullptr) const;

  /// rotate with a pre-resolved Galois key (the single underlying code
  /// path; the step is implied by key.galois_elt).
  Ciphertext rotate(const Ciphertext& ct, const KeySwitchKey& key,
                    KeySwitchScratch* scratch = nullptr) const;

  /// Exact RNS rescale: divides by the last prime with rounding and drops
  /// the limb; scale is divided by q_last.
  void rescale_inplace(Ciphertext& ct) const;

  /// Drops limbs without scaling (modulus switching to a lower level, used
  /// to model the server returning a level-2 ciphertext).
  void mod_switch_to_inplace(Ciphertext& ct, std::size_t target_limbs) const;

 private:
  /// Per-(dropped-limb, target-limb) constants of the exact rescale,
  /// hoisted into the constructor: the seed recomputed the modular inverse
  /// (an O(log q) exponentiation), its Shoup quotient, and the centering
  /// offset for every limb on every rescale_poly call.
  struct RescaleConst {
    rns::ShoupMul inv_q_last;  // q_last^{-1} mod q_i
    u64 half_mod_qi = 0;       // floor(q_last / 2) mod q_i
  };

  void rescale_poly(poly::RnsPoly& p) const;

  std::shared_ptr<const CkksContext> ctx_;
  KeySwitcher switcher_;
  // rescale_consts_[last][i]: dropping limb `last`, correcting limb i.
  std::vector<std::vector<RescaleConst>> rescale_consts_;
};

}  // namespace abc::ckks
