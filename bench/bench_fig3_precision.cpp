// Reproduces Fig. 3(c): effect of floating-point mantissa width on CKKS
// precision. The paper measures *bootstrapping precision* (Boot. prec.):
// the usable bits after server-side bootstrapping, whose CoeffToSlot /
// SlotToCoeff stages evaluate the encoding FFT homomorphically and
// amplify any FFT arithmetic error by roughly sqrt(N) (SHARP [19]).
//
// We measure the client-side quantities that determine it:
//   e_quant : encode rounding floor (full-precision transform),
//   e_fft(m): additional error attributable to an m-bit-mantissa FFT,
// and report Boot. prec. proxy = -log2(A * e_fft(m) + e_quant) with
// A = sqrt(N) * 2^3 the bootstrap transform amplification at N = 2^16.
// The raw round-trip precision is printed alongside. Substitution
// rationale: docs/EXPERIMENTS.md E3.

#include <cmath>
#include <complex>
#include <cstdio>
#include <random>

#include "ckks/encoder.hpp"
#include "common/table.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: Fig. 3c (FP precision vs mantissa width)\n");

  ckks::CkksParams params = ckks::CkksParams::bootstrappable();
  auto ctx = ckks::CkksContext::create(params);
  ckks::CkksEncoder encoder(ctx);

  std::mt19937_64 rng(2025);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> message(encoder.slots());
  for (auto& z : message) z = {dist(rng), dist(rng)};

  // Full-precision reference: isolates the quantization floor.
  const ckks::Plaintext pt_exact = encoder.encode(message, /*limbs=*/2);
  const auto decoded_exact = encoder.decode(pt_exact);
  const double e_quant =
      ckks::compare_slots(message, decoded_exact).max_abs_error;

  // Bootstrap transform amplification (homomorphic CtS/StC, [19]).
  const double amplification =
      std::sqrt(static_cast<double>(ctx->n())) * 8.0;

  constexpr double kRequiredBits = 19.29;  // SHARP [19] requirement
  TextTable table("Precision vs FP mantissa width (N = 2^16)");
  table.set_header({"Mantissa bits", "Format", "Round-trip (bits)",
                    "Boot. prec. proxy (bits)", ">= 19.29"});

  double at43 = 0;
  int drop_off = -1;
  for (int mant : {25, 28, 31, 34, 37, 40, 43, 46, 49, 52}) {
    const ckks::Plaintext pt =
        encoder.encode_with_mantissa(message, /*limbs=*/2, mant);
    const auto decoded = encoder.decode_with_mantissa(pt, mant);
    const ckks::PrecisionReport r = ckks::compare_slots(message, decoded);
    // FFT-attributable error: reduced-mantissa result vs exact transform.
    double e_fft = 0.0;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      e_fft = std::max(e_fft, std::abs(decoded[i] - decoded_exact[i]));
    }
    const double boot_prec =
        -std::log2(amplification * e_fft + e_quant);
    if (mant == 43) at43 = boot_prec;
    if (drop_off < 0 && boot_prec >= kRequiredBits) drop_off = mant;
    const char* format = mant == 43 ? "FP55 (paper)"
                         : mant == 52 ? "FP64 (double)"
                                      : "";
    table.add_row({std::to_string(mant), format,
                   TextTable::fmt(r.precision_bits, 2),
                   TextTable::fmt(boot_prec, 2),
                   boot_prec >= kRequiredBits ? "yes" : "no"});
  }
  table.print();

  std::printf(
      "\nDrop-off point: the Boot. prec. proxy clears the 19.29-bit "
      "requirement from %d mantissa bits (paper: 43). At 43 bits we "
      "measure %.2f bits (paper: 23.39).\n",
      drop_off, at43);
  return 0;
}
