// Golden decode output: FNV-1a digests of the bit patterns of decoded
// slot values, pinned so that a change to the CRT recombination, the
// forward DWT or the buffer handling around them cannot move a single
// output bit unnoticed.
//
// Each point decodes two coefficient-domain plaintexts built without the
// PRNG: a signed pattern of magnitude up to ~2^40 (the size a decrypted
// message takes) and uniformly random residues (centered values as wide
// as Q itself, which at 5 limbs exceed 128 bits). Every digest is
// recomputed on each selectable kernel tier: the forward DWT dispatches on
// the tier, and a tier whose output differs in one bit changes the digest.

#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <vector>

#include "ckks/encoder.hpp"
#include "simd/simd_caps.hpp"

namespace abc::ckks {
namespace {

class Fnv1a {
 public:
  void add(u64 word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) { add(std::bit_cast<u64>(x)); }
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

u64 digest(const std::vector<std::complex<double>>& slots) {
  Fnv1a h;
  for (const std::complex<double>& z : slots) {
    h.add(z.real());
    h.add(z.imag());
  }
  return h.value();
}

u64 xorshift(u64& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Signed coefficients in [-2^40, 2^40), both signs, every magnitude.
Plaintext pattern_plaintext(const CkksContext& ctx, std::size_t limbs,
                            u64 salt) {
  std::vector<i64> coeffs(ctx.n());
  u64 x = 0x9e3779b97f4a7c15ull ^ salt;
  for (i64& c : coeffs) c = static_cast<i64>(xorshift(x) >> 23) - (i64{1} << 40);
  Plaintext pt{ctx.make_poly(limbs, poly::Domain::kCoeff), ctx.params().scale()};
  pt.poly.set_from_signed(coeffs);
  return pt;
}

/// Uniform residues in [0, q_i) on every limb: the centered values spread
/// over all of (-Q/2, Q/2].
Plaintext random_residue_plaintext(const CkksContext& ctx, std::size_t limbs,
                                   u64 salt) {
  Plaintext pt{ctx.make_poly(limbs, poly::Domain::kCoeff), ctx.params().scale()};
  u64 x = 0x243f6a8885a308d3ull ^ salt;
  for (std::size_t i = 0; i < limbs; ++i) {
    const u64 q = ctx.poly_context()->modulus(i).value();
    for (u64& r : pt.poly.limb(i)) r = xorshift(x) % q;
  }
  return pt;
}

std::vector<simd::KernelArch> selectable_tiers() {
  std::vector<simd::KernelArch> tiers{simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) tiers.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable()) {
    tiers.push_back(simd::KernelArch::kAvx512Ifma);
  }
  return tiers;
}

struct ArchGuard {
  ~ArchGuard() {
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }
};

struct Golden {
  const char* name;
  u64 digest;
};

/// Decodes the pattern and random-residue plaintexts at @p limbs on every
/// selectable tier and checks both digests, plus the FP55 mantissa path's
/// when @p want lists a third.
void expect_decode_digests(const CkksParams& params, std::size_t limbs,
                           const std::vector<Golden>& want) {
  auto ctx = CkksContext::create(params);
  CkksEncoder encoder(ctx);
  const Plaintext pattern = pattern_plaintext(*ctx, limbs, limbs);
  const Plaintext random = random_residue_plaintext(*ctx, limbs, limbs);
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_tiers()) {
    simd::set_kernel_arch_for_testing(arch);
    std::vector<Golden> got = {
        {"pattern", digest(encoder.decode(pattern))},
        {"random residues", digest(encoder.decode(random))},
    };
    if (want.size() > 2) {
      got.push_back({"pattern, 43-bit mantissa",
                     digest(encoder.decode_with_mantissa(pattern, 43))});
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].digest, want[i].digest)
          << want[i].name << " on tier " << simd::kernel_arch_name(arch)
          << ": got 0x" << std::hex << got[i].digest;
    }
  }
}

TEST(DecodeGolden, BootstrappableTwoLimbsMatchesOnEveryTier) {
  expect_decode_digests(CkksParams::bootstrappable(), 2,
                        {{"pattern", 0x7ca29c726c26a9feull},
                         {"random residues", 0x1ea3282eda200bddull}});
}

TEST(DecodeGolden, TestSmallMatchesOnEveryTier) {
  expect_decode_digests(CkksParams::test_small(10, 3), 3,
                        {{"pattern", 0x63252f8afd073b97ull},
                         {"random residues", 0xecea8e01e3c32220ull},
                         {"pattern, 43-bit mantissa", 0xcd60f703a59097a7ull}});
}

// Q is 180 bits here, so most random-residue coefficients are wider than
// 128 bits and take the general path.
TEST(DecodeGolden, SweepPointFiveLimbsMatchesOnEveryTier) {
  expect_decode_digests(CkksParams::sweep_point(13, 6), 5,
                        {{"pattern", 0xa938330ace4c6bbdull},
                         {"random residues", 0x3d227191ba9517f4ull}});
}

}  // namespace
}  // namespace abc::ckks
