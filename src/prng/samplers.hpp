#pragma once

/// @file samplers.hpp
/// Distribution samplers for CKKS key generation and encryption. These are
/// the on-chip data the paper's PRNG produces: uniform ring elements
/// ("masks" / public randomness), ternary secrets, and small errors
/// (discrete Gaussian, sigma = 3.2 per the HE security guidelines).

#include <span>
#include <vector>

#include "prng/chacha20.hpp"
#include "simd/sampler_kernels.hpp"

namespace abc::prng {

/// Rejection sampler for uniform values in [0, modulus): a keystream word
/// r is kept iff r < reject_bound and then maps to r % modulus.
/// sample_many runs the simd::uniform_reject kernel on the ChaCha20 buffer
/// in place and consumes exactly the words out.size() sample() calls would.
class UniformModSampler {
 public:
  explicit UniformModSampler(u64 modulus);

  u64 sample(ChaCha20& rng) const;
  void sample_many(ChaCha20& rng, std::span<u64> out) const;

  /// Largest multiple of the modulus <= 2^64 - 1; words at or above it
  /// are rejected.
  u64 reject_bound() const noexcept { return m_.reject_bound; }

  /// r % modulus, exactly, for any 64-bit r (simd::UniformModulus::reduce).
  u64 reduce(u64 r) const noexcept { return m_.reduce(r); }

 private:
  simd::UniformModulus m_;
};

/// Uniform ternary secrets in {-1, 0, 1} (the common CKKS secret
/// distribution; 2 bits consumed per coefficient with rejection of '11').
class TernarySampler {
 public:
  i8 sample(ChaCha20& rng) const;
  void sample_many(ChaCha20& rng, std::span<i8> out) const;
};

/// Discrete Gaussian via a cumulative distribution table (CDT), the
/// standard constant-time-friendly hardware choice. Tail cut at 6 sigma.
/// One keystream word per sample: bit 0 is the sign, the upper 63 bits
/// index the magnitude CDF. The magnitude is a branchless count over the
/// whole table, so its running time does not depend on the sample.
/// sample_many runs the simd::gaussian_cdt kernel on the ChaCha20 buffer
/// in place.
class DiscreteGaussianSampler {
 public:
  explicit DiscreteGaussianSampler(double sigma = 3.2);

  double sigma() const noexcept { return sigma_; }
  int tail() const noexcept { return tail_; }

  i32 sample(ChaCha20& rng) const;
  void sample_many(ChaCha20& rng, std::span<i32> out) const;

  /// The sample a keystream word maps to.
  i32 from_word(u64 r) const noexcept;

  /// cdf()[k] = P(|X| <= k) scaled to 2^63, non-decreasing; the magnitude
  /// of word r is the number of k < tail() with (r >> 1) >= cdf()[k].
  std::span<const u64> cdf() const noexcept { return cdf_; }

 private:
  std::size_t count() const noexcept { return static_cast<std::size_t>(tail_); }

  double sigma_;
  int tail_;
  std::vector<u64> cdf_;  // tail_ + 1 entries (~20 at sigma 3.2)
};

}  // namespace abc::prng
