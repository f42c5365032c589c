#include "prng/samplers.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace abc::prng {

UniformModSampler::UniformModSampler(u64 modulus)
    : m_(simd::UniformModulus::make(modulus)) {}

u64 UniformModSampler::sample(ChaCha20& rng) const {
  for (;;) {
    const u64 r = rng.next_u64();
    if (r < m_.reject_bound) return m_.reduce(r);
  }
}

void UniformModSampler::sample_many(ChaCha20& rng, std::span<u64> out) const {
  // The kernel reads the buffered keystream in place and stops at the word
  // that fills out, so exactly the words sample() would read are read.
  std::size_t filled = 0;
  while (filled < out.size()) {
    rng.read_u64([&](std::span<const u64> words) {
      const simd::RejectCount c =
          simd::uniform_reject(m_, words.data(), words.size(),
                               out.data() + filled, out.size() - filled);
      filled += c.written;
      return c.consumed;
    });
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
  return simd::gaussian_from_word(cdf_.data(), count(), r);
}

i32 DiscreteGaussianSampler::sample(ChaCha20& rng) const {
  return from_word(rng.next_u64());
}

void DiscreteGaussianSampler::sample_many(ChaCha20& rng,
                                          std::span<i32> out) const {
  std::size_t filled = 0;
  while (filled < out.size()) {
    rng.read_u64([&](std::span<const u64> words) {
      const std::size_t len = std::min(words.size(), out.size() - filled);
      simd::gaussian_cdt(cdf_.data(), count(), words.data(),
                         out.data() + filled, len);
      filled += len;
      return len;
    });
  }
}

}  // namespace abc::prng
