#include "ckks/noise.hpp"

#include <cmath>

namespace abc::ckks {

double fresh_noise_bound(const CkksParams& params, EncryptMode mode) {
  const double n = static_cast<double>(params.n());
  const double sigma = params.error_sigma;
  const double tail = 6.0;  // CDT tail cut
  if (mode == EncryptMode::kSymmetricSeeded) {
    // c0 = -(a s) + m + e: decryption phase noise is just e.
    return tail * sigma * std::sqrt(n);
  }
  // Public key: phase noise = u*e_pk + e0 + s*e1. With ternary u and s of
  // expected Hamming weight 2N/3, each convolution term has canonical norm
  // ~ tail * sigma * sqrt(N) * sqrt(h).
  const double h = 2.0 * n / 3.0;
  return tail * sigma * std::sqrt(n) * (2.0 * std::sqrt(h) + 1.0);
}

double fresh_precision_bound_bits(const CkksParams& params,
                                  EncryptMode mode) {
  const double bound =
      slot_error_bound(fresh_noise_bound(params, mode), params.scale());
  return -std::log2(bound);
}

double keyswitch_noise_bound(const CkksParams& params, std::size_t limbs) {
  // Digit errors: each of the `limbs` digits contributes ext_d(c) * e_d
  // with ext_d uniform in [0, q_d); after the division by P the canonical
  // norm of one term is ~ tail * sigma * N * (q_d / P) / sqrt(12). The
  // prime chain is near-uniform in magnitude, so q_d / P ~ 1.
  const double n = static_cast<double>(params.n());
  const double tail = 6.0;
  const double digit_term =
      tail * params.error_sigma * n / std::sqrt(12.0);
  // Mod-down rounding: eps/P convolves with (1, s); with ternary s of
  // expected weight 2N/3 that is ~ tail * sqrt(N * h / 12).
  const double h = 2.0 * n / 3.0;
  const double round_term = tail * std::sqrt(n * h / 12.0);
  return static_cast<double>(limbs) * digit_term + round_term;
}

namespace {

double default_verify_bound(const CkksContext& ctx, const Ciphertext& ct) {
  return slot_error_bound(
      fresh_noise_bound(ctx.params(), EncryptMode::kPublicKey) +
          keyswitch_noise_bound(ctx.params(), ct.limbs()),
      ct.scale);
}

double max_slot_error(std::span<const std::complex<double>> decoded,
                      std::span<const std::complex<double>> reference) {
  ABC_CHECK_ARG(reference.size() <= decoded.size(),
                "more expected slots than the ciphertext decodes to");
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(max_err, std::abs(decoded[i] - reference[i]));
  }
  return max_err;
}

VerifyReport fold_report(double bound, double max_abs_error) {
  VerifyReport report;
  report.bound = bound;
  report.max_abs_error = max_abs_error;
  report.ok = max_abs_error <= bound;
  report.precision_bits =
      max_abs_error > 0.0 ? -std::log2(max_abs_error) : 60.0;
  return report;
}

}  // namespace

VerifyReport verify_decode(const CkksContext& ctx, const Ciphertext& ct,
                           Decryptor& decryptor, const CkksEncoder& encoder,
                           std::span<const std::complex<double>> expected,
                           double bound) {
  return fold_report(bound > 0.0 ? bound : default_verify_bound(ctx, ct),
                     measured_slot_noise(ct, decryptor, encoder, expected));
}

double measured_slot_noise(const Ciphertext& ct, Decryptor& decryptor,
                           const CkksEncoder& encoder,
                           std::span<const std::complex<double>> reference) {
  return max_slot_error(encoder.decode(decryptor.decrypt(ct)), reference);
}

}  // namespace abc::ckks
