#include "prng/samplers.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"

namespace abc::prng {

UniformModSampler::UniformModSampler(u64 modulus) : modulus_(modulus) {
  ABC_CHECK_ARG(modulus >= 2, "modulus must be >= 2");
  // reject_bound = floor(2^64 / q) * q, i.e. wrap-free region.
  const u64 quotient = (~u64{0}) / modulus;  // floor((2^64 - 1) / q)
  reject_bound_ = quotient * modulus;
  // If q divides 2^64 exactly this under-counts by one block, which only
  // tightens the bound; correctness is unaffected.
  // q >= 2, so floor(2^64 / q) <= 2^63 fits one word.
  ratio_ = static_cast<u64>((static_cast<u128>(1) << 64) / modulus);
}

u64 UniformModSampler::sample(ChaCha20& rng) const {
  for (;;) {
    const u64 r = rng.next_u64();
    if (r < reject_bound_) return reduce(r);
  }
}

void UniformModSampler::sample_many(ChaCha20& rng, std::span<u64> out) const {
  // Reads at most 1 KiB of words at a time into the output's unfilled
  // tail and compacts the accepted ones down in place. A chunk is never longer
  // than the number of outputs still missing, and each word yields at
  // most one output, so exactly the words sample() would read are read.
  constexpr std::size_t kChunk = simd::kChachaBytes / sizeof(u64);
  std::size_t filled = 0;
  while (filled < out.size()) {
    const std::span<u64> words =
        out.subspan(filled, std::min(kChunk, out.size() - filled));
    rng.fill_u64(words);
    for (const u64 r : words) {
      if (r < reject_bound_) out[filled++] = reduce(r);
    }
  }
}

i8 TernarySampler::sample(ChaCha20& rng) const {
  for (;;) {
    // Consume 2 bits; reject the fourth symbol for exact uniformity.
    const u32 bits = rng.next_u32() & 3;
    if (bits != 3) return static_cast<i8>(bits) - 1;
  }
}

void TernarySampler::sample_many(ChaCha20& rng, std::span<i8> out) const {
  // Pull 32 bits at a time and consume 2-bit symbols to avoid wasting
  // keystream (16 symbols per word, minus rejections).
  std::size_t i = 0;
  while (i < out.size()) {
    u32 word = rng.next_u32();
    for (int s = 0; s < 16 && i < out.size(); ++s) {
      const u32 bits = word & 3;
      word >>= 2;
      if (bits != 3) out[i++] = static_cast<i8>(bits) - 1;
    }
  }
}

DiscreteGaussianSampler::DiscreteGaussianSampler(double sigma) : sigma_(sigma) {
  ABC_CHECK_ARG(sigma > 0.1 && sigma < 64.0, "sigma out of supported range");
  tail_ = static_cast<int>(std::ceil(6.0 * sigma));
  // Build P(|X| <= k) for the discrete Gaussian on Z.
  // p(0) = c, p(k) = 2c*exp(-k^2 / (2 sigma^2)) for k >= 1.
  std::vector<double> weights(static_cast<std::size_t>(tail_) + 1);
  weights[0] = 1.0;
  double total = 1.0;
  for (int k = 1; k <= tail_; ++k) {
    const double w =
        2.0 * std::exp(-static_cast<double>(k) * k / (2.0 * sigma * sigma));
    weights[static_cast<std::size_t>(k)] = w;
    total += w;
  }
  cdf_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    acc += weights[k] / total;
    const double scaled = acc * 0x1.0p63;
    cdf_[k] = scaled >= 0x1.0p63 ? ~u64{0} >> 1 : static_cast<u64>(scaled);
  }
  cdf_.back() = ~u64{0} >> 1;  // ensure full coverage
}

i32 DiscreteGaussianSampler::from_word(u64 r) const noexcept {
  const u64 u = r >> 1;  // 63 bits for the magnitude CDF
  // cdf_ is non-decreasing, so the entries u clears form a prefix and
  // their count is the first k with u < cdf_[k] (or tail_ if none).
  i32 magnitude = 0;
  for (int k = 0; k < tail_; ++k) {
    magnitude += static_cast<i32>(u >= cdf_[static_cast<std::size_t>(k)]);
  }
  // Sign from bit 0; at magnitude 0 both signs give 0.
  const i32 sign = -static_cast<i32>(r & 1);
  return (magnitude ^ sign) - sign;
}

i32 DiscreteGaussianSampler::sample(ChaCha20& rng) const {
  return from_word(rng.next_u64());
}

void DiscreteGaussianSampler::sample_many(ChaCha20& rng,
                                          std::span<i32> out) const {
  std::array<u64, simd::kChachaBytes / sizeof(u64)> words{};
  for (std::size_t i = 0; i < out.size(); i += words.size()) {
    const std::size_t len = std::min(words.size(), out.size() - i);
    rng.fill_u64(std::span<u64>(words.data(), len));
    for (std::size_t j = 0; j < len; ++j) out[i + j] = from_word(words[j]);
  }
}

}  // namespace abc::prng
