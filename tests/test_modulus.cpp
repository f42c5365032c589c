#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "common/math_util.hpp"
#include "rns/modulus.hpp"

namespace abc::rns {
namespace {

class ModulusParamTest : public ::testing::TestWithParam<u64> {};

TEST_P(ModulusParamTest, ReduceMatchesNaive) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const u64 x = rng();
    EXPECT_EQ(q.reduce(x), x % q.value());
  }
}

TEST_P(ModulusParamTest, Reduce128MatchesNaive) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(43);
  for (int i = 0; i < 2000; ++i) {
    const u128 x = (static_cast<u128>(rng()) << 64) | rng();
    EXPECT_EQ(q.reduce_128(x), static_cast<u64>(x % q.value()));
  }
}

TEST_P(ModulusParamTest, MulAddSubRoundtrip) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(44);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng() % q.value();
    const u64 b = rng() % q.value();
    EXPECT_EQ(q.mul(a, b), mul_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.add(a, b), add_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.sub(a, b), sub_mod_u64(a, b, q.value()));
    EXPECT_EQ(q.add(q.sub(a, b), b), a);
    EXPECT_EQ(q.add(a, q.negate(a)), 0u);
  }
}

TEST_P(ModulusParamTest, ShoupMatchesBarrett) {
  const Modulus q(GetParam());
  std::mt19937_64 rng(45);
  for (int i = 0; i < 500; ++i) {
    const u64 w = rng() % q.value();
    const ShoupMul sm = ShoupMul::make(w, q);
    for (int j = 0; j < 10; ++j) {
      const u64 x = rng() % q.value();
      EXPECT_EQ(sm.mul(x, q.value()), q.mul(x, w));
    }
  }
}

TEST_P(ModulusParamTest, PowAndInv) {
  // inv() is extended Euclid, so it must also serve a composite modulus:
  // units invert, non-units throw, and pow() adds exponents either way.
  const Modulus q(GetParam());
  const bool prime = is_prime_u64(q.value());
  if (!prime) {
    u64 factor = 2;  // the composites here all have a factor below 2^18
    while (q.value() % factor != 0) ++factor;
    EXPECT_THROW((void)q.inv(factor), InvalidArgument);
  }

  std::mt19937_64 rng(46);
  for (int i = 0; i < 100; ++i) {
    const u64 a = 1 + rng() % (q.value() - 1);
    const u64 e1 = rng() >> 1, e2 = rng() >> 1;
    EXPECT_EQ(q.pow(a, e1 + e2), q.mul(q.pow(a, e1), q.pow(a, e2)));
    if (prime) EXPECT_EQ(q.pow(a, q.value() - 1), 1u);
    if (std::gcd(a, q.value()) == 1) {
      EXPECT_EQ(q.mul(a, q.inv(a)), 1u);
    } else {
      EXPECT_THROW((void)q.inv(a), InvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariousModuli, ModulusParamTest,
    ::testing::Values(
        // Small prime, odd composites (PowAndInv checks units, non-units
        // and exponent addition on them), 36-bit prime, prime
        // < 2^62, and 36-bit and 44-bit NTT primes (both = 1 mod 2^17).
        u64{3}, u64{255}, u64{68719403009ull},
        (u64{1} << 36) - (u64{1} << 18) + 1,  // = 246241 * 279073
        (u64{1} << 44) - 65535,               // = 131447 * 133834823
        u64{4611686018427387847ull},
        u64{68718428161ull},      // 0xffff00001
        u64{17592182243329ull}));  // 0xfffffc60001

TEST(Modulus, RejectsBadValues) {
  EXPECT_THROW(Modulus(0), InvalidArgument);
  EXPECT_THROW(Modulus(1), InvalidArgument);
  EXPECT_THROW(Modulus(u64{1} << 63), InvalidArgument);
}

TEST(Modulus, CenteredRepresentation) {
  const Modulus q(17);
  EXPECT_EQ(q.to_centered(0), 0);
  EXPECT_EQ(q.to_centered(8), 8);
  EXPECT_EQ(q.to_centered(9), -8);
  EXPECT_EQ(q.to_centered(16), -1);
  for (i64 x = -40; x <= 40; ++x) {
    EXPECT_EQ(q.from_signed(x), static_cast<u64>(((x % 17) + 17) % 17));
  }
}

}  // namespace
}  // namespace abc::rns
