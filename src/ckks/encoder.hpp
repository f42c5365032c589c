#pragma once

/// @file encoder.hpp
/// CKKS encoder/decoder: the paper's client-side "Encoding" (message ->
/// IFFT -> scale/round -> Expand RNS) and "Decoding" (Combine CRT -> FFT ->
/// message) stages, Fig. 2a. The transform runs on the same DWT the
/// accelerator's reconfigurable Fourier engine executes in FFT mode.

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"

namespace abc::ckks {

class CkksEncoder {
 public:
  explicit CkksEncoder(std::shared_ptr<const CkksContext> ctx);

  std::size_t slots() const noexcept { return ctx_->slots(); }

  /// Encode up to slots() complex values at the context scale into a
  /// plaintext with @p limbs RNS limbs (fresh messages use all limbs).
  Plaintext encode(std::span<const std::complex<double>> values,
                   std::size_t limbs) const;

  /// Convenience wrapper for real-valued data.
  Plaintext encode_real(std::span<const double> values,
                        std::size_t limbs) const;

  /// Decode a coefficient-domain plaintext back to slot values.
  std::vector<std::complex<double>> decode(const Plaintext& pt) const;

  /// Reduced-precision paths: run the I/FFT with the mantissa rounded to
  /// @p mantissa_bits after every FP operation (FP55 has 43; Fig. 3c).
  Plaintext encode_with_mantissa(std::span<const std::complex<double>> values,
                                 std::size_t limbs, int mantissa_bits) const;
  std::vector<std::complex<double>> decode_with_mantissa(
      const Plaintext& pt, int mantissa_bits) const;

 private:
  // One body per direction; F is double, or Rounded under an FpPrecision.
  template <class F>
  Plaintext encode_as(std::span<const std::complex<double>> values,
                      std::size_t limbs) const;
  template <class F>
  std::vector<std::complex<double>> decode_as(const Plaintext& pt) const;

  std::shared_ptr<const CkksContext> ctx_;
};

/// Slot-wise precision metrics (paper's "Boot. prec." proxy; see
/// docs/EXPERIMENTS.md E3 for the substitution rationale).
struct PrecisionReport {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  /// -log2(max error): usable fractional bits.
  double precision_bits = 0.0;
};

PrecisionReport compare_slots(std::span<const std::complex<double>> reference,
                              std::span<const std::complex<double>> measured);

}  // namespace abc::ckks
