#pragma once

/// @file decryptor.hpp
/// Client-side decryption, paper Fig. 2a "Decoding + Decrypt": the phase
/// polynomial c0 + c1*s (+ c2*s^2 for unrelinearized products) is
/// accumulated in the evaluation domain, INTT'd per limb, and handed to
/// the decoder (CRT combine + FFT).
///
/// A Decryptor holds only the secret it shares with its SecretKey, read
/// in place (a lower-level ciphertext uses its first limbs), so a
/// 2-component decryption allocates only the plaintext it returns. The
/// parallelism is inside each decryption (the per-limb passes fan out
/// through the context backend).
/// Decryption consumes no PRNG stream, so the result is bit-identical for
/// any backend, worker count and call order.

#include <memory>
#include <span>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/keygen.hpp"

namespace abc::ckks {

class Decryptor {
 public:
  explicit Decryptor(const SecretKey& sk);

  /// Decrypts 2- or 3-component ciphertexts; returns a coefficient-domain
  /// plaintext carrying the ciphertext scale. A malformed ciphertext
  /// (component count, mismatched levels) throws InvalidArgument.
  Plaintext decrypt(const Ciphertext& ct);

  /// Decrypts cts[i] in input order. The first failing item's exception
  /// propagates — the lowest index.
  std::vector<Plaintext> decrypt_batch(std::span<const Ciphertext> cts);

 private:
  std::shared_ptr<const poly::RnsPoly> s_;
};

}  // namespace abc::ckks
