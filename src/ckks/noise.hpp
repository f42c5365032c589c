#pragma once

/// @file noise.hpp
/// Analytic noise estimation for the client-side CKKS operations, in the
/// canonical-embedding norm. Fresh-encryption noise determines how much
/// of the scale survives the round trip (the precision floor measured in
/// Fig. 3c); the estimator's bounds are validated against measured noise
/// in tests, so downstream users can size scales without trial runs.
///
/// Model (standard CKKS heuristics, high-probability bounds with the
/// 6-sigma factor of the tail cut):
///   fresh (pk):   ||e||_can <= 6*sigma*sqrt(N) * (sqrt(h) + sqrt(N) + 1)
///   fresh (sym):  ||e||_can <= 6*sigma*sqrt(N)
///   add:          e_a + e_b
///   mul_plain:    ||pt||_inf * scale_pt * e_ct (relative growth)
/// where h is the secret Hamming weight (N*2/3 expected for uniform
/// ternary).

#include <cstddef>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"

namespace abc::ckks {

/// Analytic high-probability bound on the canonical-embedding noise of a
/// fresh encryption, in absolute units (same units as scale * message).
double fresh_noise_bound(const CkksParams& params, EncryptMode mode);

/// Decoded-slot error bound implied by a noise bound at a given scale.
inline double slot_error_bound(double noise_bound, double scale) {
  return noise_bound / scale;
}

/// Bits of slot precision implied by the fresh-encryption bound:
/// -log2(slot error).
double fresh_precision_bound_bits(const CkksParams& params, EncryptMode mode);

/// Measures the actual slot-domain noise of a ciphertext against the
/// reference message: max |decode(decrypt(ct)) - reference|.
double measured_slot_noise(const Ciphertext& ct, Decryptor& decryptor,
                           const CkksEncoder& encoder,
                           std::span<const std::complex<double>> reference);

/// Analytic high-probability bound on the canonical-embedding noise one
/// key-switch (relinearization or rotation) adds to a level-@p limbs
/// ciphertext, in absolute units. The accumulated error is
/// (sum_d ext_d(c) * e_d - eps) / P with ext_d(c) ~ U[0, q_d) and
/// |eps| <= P/2, so each digit contributes ~ sigma * N * q_d / (P * sqrt(12))
/// after the division, plus the rounding term's s-convolution
/// (~ sqrt(N h / 12)); see keyswitch.hpp for the construction.
double keyswitch_noise_bound(const CkksParams& params, std::size_t limbs);

/// Client-side precision verification of a server-returned ciphertext
/// (ROADMAP "decrypt/verify"): did every slot land within @p bound of the
/// expectation?
struct VerifyReport {
  bool ok = false;
  double max_abs_error = 0.0;  // max slot deviation from expected
  double bound = 0.0;          // the bound it was checked against
  double precision_bits = 0.0; // -log2(max_abs_error)
};

/// Decrypts + decodes @p ct and checks each of the first expected.size()
/// slots against @p expected within @p bound (absolute, slot domain). A
/// non-positive bound defaults to the fresh public-key noise floor at the
/// ciphertext's scale plus one key-switch at its level — the loosest
/// bound a well-formed single-hop server round trip should beat.
VerifyReport verify_decode(const CkksContext& ctx, const Ciphertext& ct,
                           Decryptor& decryptor, const CkksEncoder& encoder,
                           std::span<const std::complex<double>> expected,
                           double bound = 0.0);

}  // namespace abc::ckks
