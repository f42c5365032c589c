#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "poly/crt_block_composer.hpp"
#include "rns/ntt_prime.hpp"
#include "rns/rns_basis.hpp"
#include "simd/simd_caps.hpp"

namespace abc::rns {
namespace {

RnsBasis make_basis(std::size_t count) {
  return RnsBasis(select_prime_chain(36, 16, count));
}

TEST(RnsBasis, RejectsDuplicates) {
  EXPECT_THROW(RnsBasis({97, 97}), InvalidArgument);
  EXPECT_THROW(RnsBasis({}), InvalidArgument);
}

TEST(RnsBasis, ProductGrowsMonotonically) {
  const RnsBasis basis = make_basis(4);
  for (std::size_t l = 1; l < 4; ++l) {
    EXPECT_LT(basis.product(l).bit_length(), basis.product(l + 1).bit_length());
  }
  EXPECT_NEAR(basis.product(4).bit_length(), 4 * 36, 4);
}

TEST(RnsBasis, DecomposeComposeRoundtripSmallValues) {
  const RnsBasis basis = make_basis(3);
  CrtComposer composer(basis, 3);
  std::vector<u64> residues(3);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const i64 x = static_cast<i64>(rng() % (u64{1} << 52)) -
                  (i64{1} << 51);
    basis.decompose_i64(x, residues);
    EXPECT_DOUBLE_EQ(composer.compose_centered(residues),
                     static_cast<double>(x));
  }
}

TEST(RnsBasis, ComposeExactMatchesCenteredSign) {
  const RnsBasis basis = make_basis(2);
  CrtComposer composer(basis, 2);
  std::vector<u64> residues(2);
  basis.decompose_i64(-12345, residues);
  const BigUint exact = composer.compose_exact(residues);
  // exact == Q - 12345
  BigUint expected = basis.product(2);
  expected.sub(BigUint(12345));
  EXPECT_EQ(exact.compare(expected), 0);
}

TEST(RnsBasis, CrtReconstructionPropertyAcrossLevels) {
  // Random residue vectors (not from a small value): compose_exact must be
  // the unique element of [0, Q) matching every residue.
  const RnsBasis basis = make_basis(6);
  std::mt19937_64 rng(5);
  for (std::size_t limbs : {2u, 4u, 6u}) {
    CrtComposer composer(basis, limbs);
    std::vector<u64> residues(limbs);
    for (int iter = 0; iter < 50; ++iter) {
      for (std::size_t i = 0; i < limbs; ++i) {
        residues[i] = rng() % basis.modulus(i).value();
      }
      const BigUint x = composer.compose_exact(residues);
      EXPECT_TRUE(x < basis.product(limbs) || x == basis.product(limbs));
      for (std::size_t i = 0; i < limbs; ++i) {
        EXPECT_EQ(x.mod_u64(basis.modulus(i).value()), residues[i]);
      }
    }
  }
}

TEST(RnsBasis, ComposerHandlesExtremes) {
  const RnsBasis basis = make_basis(2);
  CrtComposer composer(basis, 2);
  std::vector<u64> residues(2);
  basis.decompose_i64(0, residues);
  EXPECT_DOUBLE_EQ(composer.compose_centered(residues), 0.0);
  // Q-1 == -1 centered.
  for (std::size_t i = 0; i < 2; ++i) residues[i] = basis.modulus(i).value() - 1;
  EXPECT_DOUBLE_EQ(composer.compose_centered(residues), -1.0);
}

/// floor(x / 2).
BigUint half_of(const BigUint& x) {
  std::vector<u64> w = x.words();
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = (w[i] >> 1) | (i + 1 < w.size() ? w[i + 1] << 63 : 0);
  }
  return BigUint::from_words(std::move(w));
}

BigUint power_of_two(int bits) {
  BigUint x(1);
  x.shift_left(bits);
  return x;
}

TEST(RnsBasis, BlockComposeIsBitIdenticalToBigUintCompose) {
  // poly::CrtBlockComposer::compose() must return compose_centered()'s
  // bits for every input, and both must be the centered value of
  // compose_exact(), on every tier.
  // Random residues cover (-Q/2, Q/2]; floor(Q/2) and ceil(Q/2) sit on the
  // centering boundary and, past 128 bits, the +-2^127 values on either
  // side of what the u128 path can represent.
  // The smallest transform keeps the context's NTT tables cheap.
  const poly::PolyContext ctx(2, select_prime_chain(36, 16, 24));
  const RnsBasis& basis = ctx.basis();
  std::mt19937_64 rng(26);
  struct ArchGuard {
    ~ArchGuard() {
      simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
    }
  } guard;
  std::vector<simd::KernelArch> tiers{simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) tiers.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable()) {
    tiers.push_back(simd::KernelArch::kAvx512Ifma);
  }
  for (std::size_t limbs : {1u, 2u, 3u, 6u, 24u}) {
    const BigUint& q = basis.product(limbs);
    std::vector<BigUint> values = {BigUint(0), BigUint(1), q - BigUint(1),
                                   half_of(q), half_of(q) + BigUint(1)};
    if (q.bit_length() > 129) {
      const BigUint p127 = power_of_two(127);
      for (const BigUint& v : {p127 - BigUint(1), p127, p127 + BigUint(1)}) {
        values.push_back(v);
        values.push_back(q - v);
      }
    }
    // Small signed values (a decrypted message), then uniform residues;
    // 700 values in all, so blocks of kBlock end in a partial one.
    std::vector<std::vector<u64>> rows(limbs, std::vector<u64>(700));
    for (std::size_t j = 0; j < 700; ++j) {
      const i64 small = static_cast<i64>(rng() >> 11) - (i64{1} << 52);
      for (std::size_t i = 0; i < limbs; ++i) {
        const u64 qi = basis.modulus(i).value();
        if (j < values.size()) {
          rows[i][j] = values[j].mod_u64(qi);
        } else if (j < 300) {
          rows[i][j] = basis.modulus(i).from_signed(small);
        } else {
          rows[i][j] = rng() % qi;
        }
      }
    }
    std::vector<const u64*> row_ptrs;
    for (const std::vector<u64>& r : rows) row_ptrs.push_back(r.data());

    poly::CrtBlockComposer composer(ctx, limbs);
    CrtComposer reference(basis, limbs);
    std::vector<u64> residues(limbs);
    for (simd::KernelArch arch : tiers) {
      simd::set_kernel_arch_for_testing(arch);
      std::vector<double> out(700);
      const std::size_t fallbacks = composer.compose(row_ptrs, 0, out);
      // From 2 limbs on, floor(Q/2) and ceil(Q/2) are closer to a rounding
      // tie than the double estimate can resolve (at 1 limb nothing is).
      if (limbs >= 2) EXPECT_GE(fallbacks, 2u) << limbs << " limbs";
      // Of +-(2^127 - 1), +-2^127 and +-(2^127 + 1) only -2^127 and the
      // ones inside it fit the u128 path.
      if (values.size() > 5) {
        std::vector<double> boundary(6);
        EXPECT_EQ(composer.compose(row_ptrs, 5, boundary), 3u);
      }
      // Small values never fall back.
      std::vector<double> small(300 - values.size());
      EXPECT_EQ(composer.compose(row_ptrs, values.size(), small), 0u)
          << limbs << " limbs";
      for (std::size_t j = 0; j < 700; ++j) {
        for (std::size_t i = 0; i < limbs; ++i) residues[i] = rows[i][j];
        const double want = reference.compose_centered(residues);
        EXPECT_EQ(std::bit_cast<u64>(out[j]), std::bit_cast<u64>(want))
            << limbs << " limbs, value " << j << ": " << out[j] << " vs "
            << want;
        EXPECT_EQ(std::bit_cast<u64>(want),
                  std::bit_cast<u64>(centered_to_double(
                      reference.compose_exact(residues), q)))
            << limbs << " limbs, value " << j;
      }
      for (std::size_t j = 0; j < small.size(); ++j) {
        EXPECT_EQ(std::bit_cast<u64>(small[j]),
                  std::bit_cast<u64>(out[values.size() + j]));
      }
    }
  }
}

}  // namespace
}  // namespace abc::rns
