#include "poly/crt_block_composer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "simd/dyadic_kernels.hpp"

namespace abc::poly {

CrtBlockComposer::CrtBlockComposer(const PolyContext& ctx, std::size_t limbs)
    : ctx_(ctx),
      limbs_(limbs),
      prefix_(ctx.basis().prefix(limbs)),
      reference_(ctx.basis(), limbs) {
  for (std::size_t i = 0; i < limbs_; ++i) {
    inv_q_.push_back(1.0 / static_cast<double>(ctx_.modulus(i).value()));
  }
  // Each term y_i * (1/q_i) is below 1 with relative error <= 3u, and the
  // running sum stays below limbs, so the double sum is off by at most
  // (limbs^2 + 2 limbs) u, u = 2^-53. Twice that, rounded up, is the slack.
  const double l = static_cast<double>(limbs_);
  tie_slack_ = (l * l + 3 * l + 1) * 0x1p-52;
  y_.resize(limbs_ * kBlock);
  residues_.resize(limbs_);
}

std::size_t CrtBlockComposer::compose(std::span<const u64* const> rows,
                                      std::size_t begin,
                                      std::span<double> out) {
  ABC_CHECK_ARG(rows.size() == limbs_, "residue row count mismatch");
  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < out.size(); k += kBlock) {
    const std::size_t len = std::min(kBlock, out.size() - k);
    fallbacks += compose_block(rows, begin + k, out.subspan(k, len));
  }
  return fallbacks;
}

std::size_t CrtBlockComposer::compose_block(
    std::span<const u64* const> rows, std::size_t begin,
    std::span<double> out) {
  const std::size_t len = out.size();
  for (std::size_t i = 0; i < limbs_; ++i) {
    u64* y = y_.data() + i * kBlock;
    std::copy_n(rows[i] + begin, len, y);
    simd::dyadic_mul_scalar(ctx_.dyadic(i), y, len, prefix_.qhat_inv[i],
                            prefix_.qhat_inv_shoup[i]);
  }
  const std::span<const rns::Modulus> moduli = ctx_.basis().moduli();
  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < len; ++k) {
    // sum(y_i * qhat_i) = K * Q + v with v in [0, Q) and K = floor(s),
    // s = sum(y_i / q_i); the centered value is the sum minus round(s) * Q.
    u128 acc = 0;
    double s = 0.0;
    for (std::size_t i = 0; i < limbs_; ++i) {
      const u64 y = y_[i * kBlock + k];
      acc += y * prefix_.qhat_low[i];
      s += static_cast<double>(static_cast<i64>(y)) * inv_q_[i];
    }
    const i64 whole = static_cast<i64>(s);  // s >= 0: truncation is floor
    const double frac = s - static_cast<double>(whole);
    bool exact = std::abs(frac - 0.5) > tie_slack_;
    u128 mag = 0;
    u64 negative = 0;
    if (exact) {
      const u64 r = static_cast<u64>(whole) + (frac > 0.5 ? 1 : 0);
      const u128 x = acc - r * prefix_.q_low;  // centered value mod 2^128
      // Branch-free |x| and sign: the sign of a decoded value is a coin
      // flip, which a branch would mispredict half the time.
      negative = static_cast<u64>(x >> 127);
      const u128 sign = u128{0} - negative;
      mag = (x ^ sign) - sign;
      // With r certified, x is the centered value v mod 2^128: v itself
      // when Q < 2^127 (|v| < 2^126). Otherwise x must also reproduce
      // every residue; then x = v mod 2^128 * Q, and |x - v| is below
      // that, so x = v.
      for (std::size_t i = 0; !prefix_.narrow && exact && i < limbs_; ++i) {
        const rns::Modulus& qi = moduli[i];
        const u64 m = qi.reduce_128(mag);
        exact = (negative ? qi.negate(m) : m) == rows[i][begin + k];
      }
    }
    if (!exact) {
      for (std::size_t i = 0; i < limbs_; ++i) {
        residues_[i] = rows[i][begin + k];
      }
      out[k] = reference_.compose_centered(residues_);
      ++fallbacks;
      continue;
    }
    // compose_centered's conversion order: top word * 2^64 + low word;
    // d > 0 here, so setting the sign bit is negation.
    const double d = static_cast<double>(hi64(mag)) * 0x1p64 +
                     static_cast<double>(lo64(mag));
    out[k] = std::bit_cast<double>(std::bit_cast<u64>(d) | (negative << 63));
  }
  return fallbacks;
}

}  // namespace abc::poly
