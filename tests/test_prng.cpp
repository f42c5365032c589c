#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <string_view>

#include "ckks/keygen.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "prng/chacha20.hpp"
#include "prng/samplers.hpp"
#include "rns/ntt_prime.hpp"
#include "simd/kernels.hpp"
#include "simd/sampler_kernels.hpp"
#include "simd/simd_caps.hpp"

namespace abc::prng {
namespace {

TEST(ChaCha20Block, Rfc8439TestVector) {
  // RFC 8439 Section 2.3.2 test vector.
  std::array<u32, 8> key;
  for (int i = 0; i < 8; ++i) {
    // key bytes 00 01 02 ... 1f, little-endian words
    key[static_cast<std::size_t>(i)] =
        static_cast<u32>(4 * i) | (static_cast<u32>(4 * i + 1) << 8) |
        (static_cast<u32>(4 * i + 2) << 16) |
        (static_cast<u32>(4 * i + 3) << 24);
  }
  const std::array<u32, 3> nonce = {0x09000000u, 0x4a000000u, 0x00000000u};
  std::array<u8, 64> out{};
  chacha20_block(key, 1, nonce, out);
  const std::array<u8, 64> expected = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(out, expected);
}

TEST(ChaCha20, DeterministicAndStreamSeparated) {
  const std::array<u8, 16> seed = {1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12, 13, 14, 15, 16};
  ChaCha20 a(seed, 0), b(seed, 0), c(seed, 1), d(seed, 0, /*domain=*/7);
  for (int i = 0; i < 100; ++i) {
    const u64 va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());
    EXPECT_NE(va, d.next_u64());
  }
}

TEST(ChaCha20, PrngDomainTagsAreDisjointStreams) {
  // Every PrngDomain consumer must sit on its own keystream: the domain
  // word is part of the ChaCha nonce, so equal (seed, stream id) pairs
  // under different domains never collide. Enumerates the full domain map
  // (documented in docs/ARCHITECTURE.md) to catch an accidentally reused
  // tag when a new domain is added.
  using ckks::PrngDomain;
  const std::array<u8, 16> seed = {3, 1, 4, 1, 5, 9, 2, 6,
                                   5, 3, 5, 8, 9, 7, 9, 3};
  const std::array<PrngDomain, 11> domains = {
      PrngDomain::kSecretKey,   PrngDomain::kPublicA,
      PrngDomain::kKeygenError, PrngDomain::kEncryptMask,
      PrngDomain::kEncryptError, PrngDomain::kSymmetricA,
      PrngDomain::kSymmetricError, PrngDomain::kRelinA,
      PrngDomain::kRelinError,  PrngDomain::kGaloisA,
      PrngDomain::kGaloisError};
  std::vector<u64> first_words;
  for (PrngDomain d : domains) {
    ChaCha20 rng(seed, /*stream_id=*/0, static_cast<u32>(d));
    first_words.push_back(rng.next_u64());
  }
  for (std::size_t i = 0; i < domains.size(); ++i) {
    EXPECT_NE(static_cast<u32>(domains[i]), 0u);  // 0 is the default domain
    for (std::size_t j = i + 1; j < domains.size(); ++j) {
      EXPECT_NE(static_cast<u32>(domains[i]), static_cast<u32>(domains[j]));
      EXPECT_NE(first_words[i], first_words[j]) << i << " vs " << j;
    }
  }
}

TEST(ChaCha20, DoubleInUnitInterval) {
  ChaCha20 rng({}, 0);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(ChaCha20, ByteUniformityChiSquared) {
  ChaCha20 rng({42}, 3);
  std::array<u64, 256> hist{};
  constexpr int kSamples = 1 << 16;
  std::vector<u8> buf(kSamples);
  rng.fill_bytes(buf);
  for (u8 b : buf) ++hist[b];
  const double expected = kSamples / 256.0;
  double chi2 = 0;
  for (u64 h : hist) {
    const double d = static_cast<double>(h) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, sd ~22.6. Accept +/- 6 sigma.
  EXPECT_GT(chi2, 255 - 6 * 22.6);
  EXPECT_LT(chi2, 255 + 6 * 22.6);
}

TEST(UniformModSampler, BoundsAndUniformity) {
  const u64 q = (u64{1} << 36) - (u64{1} << 18) + 1;
  UniformModSampler sampler(q);
  ChaCha20 rng({9}, 0);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    const u64 v = sampler.sample(rng);
    ASSERT_LT(v, q);
    s.add(static_cast<double>(v) / static_cast<double>(q));
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(TernarySampler, BalancedDistribution) {
  TernarySampler sampler;
  ChaCha20 rng({5}, 0);
  std::vector<i8> out(60000);
  sampler.sample_many(rng, out);
  std::map<i8, int> hist;
  for (i8 v : out) ++hist[v];
  ASSERT_EQ(hist.size(), 3u);
  for (auto [value, count] : hist) {
    EXPECT_GE(value, -1);
    EXPECT_LE(value, 1);
    EXPECT_NEAR(count, 20000, 800);  // ~5 sigma of binomial(60000, 1/3)
  }
}

TEST(DiscreteGaussian, MomentsMatchSigma) {
  DiscreteGaussianSampler sampler(3.2);
  ChaCha20 rng({17}, 0);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(static_cast<double>(sampler.sample(rng)));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.2, 0.08);
  EXPECT_LE(std::abs(s.max()), sampler.tail());
  EXPECT_LE(std::abs(s.min()), sampler.tail());
}

TEST(DiscreteGaussian, TailCutRespected) {
  DiscreteGaussianSampler sampler(0.5);
  ChaCha20 rng({23}, 0);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(std::abs(sampler.sample(rng)), sampler.tail());
  }
}

TEST(DiscreteGaussian, SigmaSweepIsConsistent) {
  for (double sigma : {1.0, 2.0, 3.2, 6.4}) {
    DiscreteGaussianSampler sampler(sigma);
    ChaCha20 rng({static_cast<u8>(sigma * 10)}, 0);
    RunningStats s;
    for (int i = 0; i < 40000; ++i) {
      s.add(static_cast<double>(sampler.sample(rng)));
    }
    EXPECT_NEAR(s.stddev(), sigma, 0.05 * sigma + 0.02) << sigma;
  }
}

// -- multi-block keystream ---------------------------------------------------

/// Restores the detected kernel arch when a test that forces one exits.
struct ArchGuard {
  ~ArchGuard() {
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }
};

/// Every kernel tier selectable in this process (env vetoes included).
std::vector<simd::KernelArch> available_arches() {
  std::vector<simd::KernelArch> arches = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) arches.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable())
    arches.push_back(simd::KernelArch::kAvx512Ifma);
  return arches;
}

using Block16 = std::array<u8, simd::kChachaBytes>;

std::array<u32, 8> rfc_key() {
  // Key bytes 00 01 02 ... 1f as little-endian words.
  std::array<u32, 8> key;
  for (u32 i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  return key;
}

/// The bytes of `count` scalar blocks from `counter` on, concatenated.
std::vector<u8> scalar_blocks(const std::array<u32, 8>& key, u32 counter,
                              const std::array<u32, 3>& nonce,
                              std::size_t count) {
  std::vector<u8> out(64 * count);
  for (std::size_t b = 0; b < count; ++b) {
    chacha20_block(key, counter + static_cast<u32>(b), nonce,
                   std::span<u8, 64>(out.data() + 64 * b, 64));
  }
  return out;
}

TEST(ChaCha20Blocks, Rfc8439VectorsOnEveryTier) {
  // Appendix A.1 test vectors #1 and #2: all-zero key and nonce, blocks 0
  // and 1 — the first 128 bytes of a run from counter 0.
  const std::array<u8, 128> a1 = {
      0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5,
      0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a,
      0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7, 0xda, 0x41, 0x59, 0x7c,
      0x51, 0x57, 0x48, 0x8d, 0x77, 0x24, 0xe0, 0x3f, 0xb8, 0xd8, 0x4a, 0x37,
      0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1, 0x1c, 0xc3, 0x87, 0xb6, 0x69,
      0xb2, 0xee, 0x65, 0x86, 0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a,
      0x98, 0xba, 0x97, 0x7c, 0x73, 0x2d, 0x08, 0x0d, 0xcb, 0x0f, 0x29, 0xa0,
      0x48, 0xe3, 0x65, 0x69, 0x12, 0xc6, 0x53, 0x3e, 0x32, 0xee, 0x7a, 0xed,
      0x29, 0xb7, 0x21, 0x76, 0x9c, 0xe6, 0x4e, 0x43, 0xd5, 0x71, 0x33, 0xb0,
      0x74, 0xd8, 0x39, 0xd5, 0x31, 0xed, 0x1f, 0x28, 0x51, 0x0a, 0xfb, 0x45,
      0xac, 0xe1, 0x0a, 0x1f, 0x4b, 0x79, 0x4d, 0x6f};
  // Section 2.3.2: the RFC key, one block at counter 1.
  const std::array<u8, 64> s232 = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  // Section 2.4.2: the RFC key, counter 1, 114 bytes of plaintext; the
  // keystream is ciphertext XOR plaintext and spans two blocks.
  constexpr std::string_view plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const std::array<u8, 114> ciphertext = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
      0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2,
      0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5,
      0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57,
      0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
      0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61,
      0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
      0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36,
      0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed,
      0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d};
  ASSERT_EQ(plaintext.size(), ciphertext.size());

  ArchGuard guard;
  for (simd::KernelArch arch : available_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    SCOPED_TRACE(simd::kernel_arch_name(arch));
    Block16 out{};
    chacha20_blocks({}, 0, {}, out);
    EXPECT_TRUE(std::equal(a1.begin(), a1.end(), out.begin()));

    chacha20_blocks(rfc_key(), 1, {0x09000000u, 0x4a000000u, 0u}, out);
    EXPECT_TRUE(std::equal(s232.begin(), s232.end(), out.begin()));

    chacha20_blocks(rfc_key(), 1, {0u, 0x4a000000u, 0u}, out);
    for (std::size_t i = 0; i < plaintext.size(); ++i) {
      ASSERT_EQ(out[i] ^ static_cast<u8>(plaintext[i]), ciphertext[i]) << i;
    }
  }
}

TEST(ChaCha20Blocks, EveryTierEmitsTheScalarBlocks) {
  std::mt19937_64 gen(2024);
  const std::array<u64, 5> counters = {0, 1, 15, 123457,
                                       (u64{1} << 32) - 16};
  ArchGuard guard;
  for (u64 counter : counters) {
    std::array<u32, 8> key;
    for (u32& w : key) w = static_cast<u32>(gen());
    const std::array<u32, 3> nonce = {static_cast<u32>(gen()),
                                      static_cast<u32>(gen()),
                                      static_cast<u32>(gen())};
    const std::vector<u8> expected =
        scalar_blocks(key, static_cast<u32>(counter), nonce, 16);
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      Block16 out{};
      chacha20_blocks(key, counter, nonce, out);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << simd::kernel_arch_name(arch) << " counter " << counter;
    }
  }
}

TEST(ChaCha20Blocks, CounterPast2To32Throws) {
  // A run of 16 blocks from 2^32 - 8 would wrap the 32-bit block counter
  // and replay blocks 0..7; the raw function refuses it.
  Block16 out{};
  EXPECT_THROW(chacha20_blocks({}, (u64{1} << 32) - 8, {}, out), LogicError);
  EXPECT_THROW(chacha20_blocks({}, u64{1} << 32, {}, out), LogicError);
  // The last full run ends exactly on block 2^32 - 1.
  EXPECT_NO_THROW(chacha20_blocks({}, (u64{1} << 32) - 16, {}, out));
}

/// The keystream bytes ChaCha20(seed, stream_id, domain) must produce,
/// from the scalar block function: key = seed || ~seed, nonce = (domain,
/// stream_id lo, stream_id hi), blocks from counter 0.
std::vector<u8> scalar_stream(const std::array<u8, 16>& seed, u64 stream_id,
                              u32 domain, std::size_t blocks) {
  std::array<u32, 8> key;
  for (std::size_t i = 0; i < 4; ++i) {
    std::memcpy(&key[i], seed.data() + 4 * i, 4);
    key[i + 4] = ~key[i];
  }
  const std::array<u32, 3> nonce = {domain, static_cast<u32>(stream_id),
                                    static_cast<u32>(stream_id >> 32)};
  return scalar_blocks(key, 0, nonce, blocks);
}

TEST(ChaCha20, MixedReadsAcrossRefillsMatchScalarBlocks) {
  const std::array<u8, 16> seed = {7, 6, 5, 4, 3, 2, 1, 0,
                                   9, 8, 7, 6, 5, 4, 3, 2};
  constexpr u64 kStream = 0x0123456789abcdefull;
  constexpr u32 kDomain = 5;
  // 8 KiB: the reads below cross at least four 1 KiB refills at varying
  // offsets and stop short of the end (one read takes up to 2400 bytes).
  const std::vector<u8> expected = scalar_stream(seed, kStream, kDomain, 128);
  ArchGuard guard;
  for (simd::KernelArch arch : available_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    SCOPED_TRACE(simd::kernel_arch_name(arch));
    ChaCha20 rng(seed, kStream, kDomain);
    std::mt19937 pick(11);
    std::vector<u8> got;
    while (got.size() + 300 * 8 <= expected.size()) {
      switch (pick() % 4) {
        case 0: {
          const u32 v = rng.next_u32();
          const auto* p = reinterpret_cast<const u8*>(&v);
          got.insert(got.end(), p, p + 4);
          break;
        }
        case 1: {
          const u64 v = rng.next_u64();
          const auto* p = reinterpret_cast<const u8*>(&v);
          got.insert(got.end(), p, p + 8);
          break;
        }
        case 2: {
          std::vector<u8> buf(pick() % 300);
          rng.fill_bytes(buf);
          got.insert(got.end(), buf.begin(), buf.end());
          break;
        }
        default: {
          std::vector<u64> words(pick() % 300);
          rng.fill_u64(words);
          const auto* p = reinterpret_cast<const u8*>(words.data());
          got.insert(got.end(), p, p + 8 * words.size());
          break;
        }
      }
    }
    ASSERT_GT(got.size(), 4 * simd::kChachaBytes);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
  }
}

TEST(UniformModSampler, ReduceIsExactOnAdversarialWords) {
  std::mt19937_64 gen(99);
  std::vector<u64> moduli = {2, 3, 5, 7, 1000003,
                             (u64{1} << 36) - (u64{1} << 18) + 1,
                             (u64{1} << 50) - 27, (u64{1} << 61) - 1,
                             (u64{1} << 62) - 57, u64{1} << 62};
  for (int k = 1; k <= 62; ++k) {
    moduli.push_back(u64{1} << k);
    moduli.push_back((u64{1} << k) + 1);
  }
  for (u64 q : moduli) {
    const UniformModSampler sampler(q);
    const u64 bound = sampler.reject_bound();
    EXPECT_EQ(bound % q, 0u) << q;
    EXPECT_GE(bound, ~u64{0} - q + 1) << q;  // largest such multiple
    // 2^64 - 1 is never a multiple of q here, so it is always rejected.
    EXPECT_GE(~u64{0}, bound) << q;
    std::vector<u64> words = {0,         1,         q - 1,     q,
                              q + 1,     2 * q - 1, 2 * q,     bound - 1,
                              bound - q, bound,     ~u64{0}};
    for (int i = 0; i < 64; ++i) words.push_back(gen());
    for (u64 r : words) {
      EXPECT_EQ(sampler.reduce(r), r % q) << "q " << q << " r " << r;
    }
  }
}

TEST(UniformModSampler, SampleManyReadsTheSameWordsAsSample) {
  // q near 3*2^61 rejects ~25% of words, so the bulk path's compaction is
  // exercised on every chunk; the sizes straddle the 128-word chunk.
  for (u64 q : {(u64{3} << 61) + 1, (u64{1} << 36) - (u64{1} << 18) + 1}) {
    const UniformModSampler sampler(q);
    for (std::size_t n : {1u, 127u, 128u, 129u, 1000u}) {
      ChaCha20 bulk({4, 2}, 8), single({4, 2}, 8);
      std::vector<u64> got(n);
      sampler.sample_many(bulk, got);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], sampler.sample(single)) << q << " " << n << " " << i;
      }
      EXPECT_EQ(bulk.next_u64(), single.next_u64()) << q << " " << n;
    }
  }
}

TEST(DiscreteGaussian, BranchlessCountMatchesLinearScanAtEveryCdtEntry) {
  for (double sigma : {0.5, 1.0, 3.2, 6.4}) {
    const DiscreteGaussianSampler sampler(sigma);
    const std::span<const u64> cdf = sampler.cdf();
    ASSERT_EQ(cdf.size(), static_cast<std::size_t>(sampler.tail()) + 1);
    ASSERT_TRUE(std::is_sorted(cdf.begin(), cdf.end())) << sigma;
    // The early-exit scan the sampler used before the branchless count.
    auto linear_scan = [&](u64 r) {
      const u64 u = r >> 1;
      int magnitude = 0;
      while (magnitude < sampler.tail() &&
             u >= cdf[static_cast<std::size_t>(magnitude)]) {
        ++magnitude;
      }
      if (magnitude == 0) return 0;
      return (r & 1) ? -magnitude : magnitude;
    };
    const u64 u_max = ~u64{0} >> 1;
    for (u64 c : cdf) {
      for (u64 u : {c == 0 ? c : c - 1, c, c == u_max ? c : c + 1}) {
        for (u64 sign : {0u, 1u}) {
          const u64 r = (u << 1) | sign;
          EXPECT_EQ(sampler.from_word(r), linear_scan(r))
              << "sigma " << sigma << " u " << u;
        }
      }
    }
    ChaCha20 bulk({31}, 0), single({31}, 0);
    std::vector<i32> got(1000);
    sampler.sample_many(bulk, got);
    for (i32 v : got) ASSERT_EQ(v, sampler.sample(single)) << sigma;
  }
}

/// The kernel tables of every tier selectable in this process.
std::vector<const simd::Kernels*> available_tables() {
  std::vector<const simd::Kernels*> tables = {&simd::portable_kernels()};
  if (simd::avx2_selectable()) tables.push_back(simd::avx2_kernels());
  if (simd::avx512ifma_selectable())
    tables.push_back(simd::avx512ifma_kernels());
  return tables;
}

TEST(UniformModSampler, RejectKernelMatchesSampleOnEveryTier) {
  // 3*2^61+1 rejects ~25% of words and lies past the AVX-512 body's range
  // (UniformModulus::vector_ok), as does 2, the smallest modulus accepted;
  // 2^61+1 rejects ~12.5% inside it; 16381 and 16411 are the primes either
  // side of its 2^14 floor; the NTT primes are the ring's.
  const std::vector<u64> moduli = {(u64{3} << 61) + 1,
                                   rns::select_prime_chain(36, 16, 1)[0],
                                   rns::select_prime_chain(50, 16, 1)[0],
                                   2,
                                   (u64{1} << 61) + 1,
                                   16381,
                                   16411};
  const std::vector<std::size_t> sizes = {1, 7, 8, 9, 127, 128, 129, 1000};
  ArchGuard guard;
  for (simd::KernelArch arch : available_arches()) {
    simd::set_kernel_arch_for_testing(arch);
    for (u64 q : moduli) {
      const UniformModSampler sampler(q);
      for (std::size_t n : sizes) {
        // At n = 7 a leading 32-bit read puts both streams off a word
        // boundary (read_u64's copied-word path).
        ChaCha20 bulk({4, 2}, 8), single({4, 2}, 8);
        if (n == 7) {
          bulk.next_u32();
          single.next_u32();
        }
        std::vector<u64> got(n);
        sampler.sample_many(bulk, got);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], sampler.sample(single))
              << simd::kernel_arch_name(arch) << " q " << q << " n " << n
              << " i " << i;
        }
        EXPECT_EQ(bulk.next_u64(), single.next_u64())
            << simd::kernel_arch_name(arch) << " q " << q << " n " << n;
      }
    }
  }

  // Every table's entry on raw words, including the words around the
  // reject bound, against the portable body, for every q on every tier
  // (kernels_for above routes wide q away from the AVX-512 table).
  std::mt19937_64 gen(5);
  for (const simd::Kernels* k : available_tables()) {
    for (u64 q : moduli) {
      const simd::UniformModulus m = simd::UniformModulus::make(q);
      std::vector<u64> words(1000);
      for (u64& w : words) w = gen();
      const u64 b = m.reject_bound;
      const std::vector<u64> edges = {0,     1,     q - 1,     q,
                                      b - 1, b,     b - q,     b + 1,
                                      ~u64{0}, 2 * q - 1, b - 2, b};
      for (std::size_t j = 0; j < edges.size(); ++j) words[3 + j] = edges[j];
      // Every fourth word from 16 on sits at or next to a multiple of q,
      // below the bound. Where fl(r) rounds below r, the vector quotient
      // estimate there is one too large or too small, so both corrections
      // are needed.
      const std::vector<u64> offsets = {0, 1, q - 1};
      for (std::size_t j = 16; j < words.size(); j += 4) {
        words[j] = gen() % (b / q) * q + offsets[j / 4 % offsets.size()];
      }
      for (std::size_t n : sizes) {
        std::vector<u64> want(n), got(n);
        const simd::RejectCount w = simd::uniform_reject_portable(
            m, words.data(), words.size(), want.data(), n);
        const simd::RejectCount g =
            k->uniform_reject(m, words.data(), words.size(), got.data(), n);
        EXPECT_EQ(g.consumed, w.consumed) << "q " << q << " n " << n;
        ASSERT_EQ(g.written, w.written) << "q " << q << " n " << n;
        got.resize(g.written);
        want.resize(w.written);
        EXPECT_EQ(got, want) << "q " << q << " n " << n;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_LT(want[i], q);
        }
      }
    }
  }
}

TEST(DiscreteGaussian, CdtKernelMatchesFromWordOnEveryTier) {
  std::mt19937_64 gen(17);
  ArchGuard guard;
  for (double sigma : {0.5, 3.2, 6.4}) {
    const DiscreteGaussianSampler sampler(sigma);
    const std::span<const u64> cdf = sampler.cdf();
    const auto count = static_cast<std::size_t>(sampler.tail());
    // Both signs of the words at, just below and just above every entry,
    // then random words; 1021 is odd, so every tier runs its tail too.
    std::vector<u64> words;
    for (u64 c : cdf) {
      for (u64 u : {c - 1, c, c + 1}) {
        words.push_back(u << 1);
        words.push_back((u << 1) | 1);
      }
    }
    while (words.size() < 1021) words.push_back(gen());
    for (const simd::Kernels* k : available_tables()) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{17}, words.size()}) {
        std::vector<i32> got(n);
        k->gaussian_cdt(cdf.data(), count, words.data(), got.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(got[j], sampler.from_word(words[j]))
              << "sigma " << sigma << " n " << n << " j " << j;
        }
      }
    }
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      ChaCha20 bulk({31}, 3), single({31}, 3);
      std::vector<i32> got(1000);
      sampler.sample_many(bulk, got);
      for (i32 v : got) ASSERT_EQ(v, sampler.sample(single)) << sigma;
      EXPECT_EQ(bulk.next_u64(), single.next_u64()) << sigma;
    }
  }
}

}  // namespace
}  // namespace abc::prng
