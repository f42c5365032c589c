#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "rns/ntt_prime.hpp"
#include "transform/ntt.hpp"
#include "transform/op_counter.hpp"

namespace abc::xf {
namespace {

rns::Modulus test_modulus(int log_n) {
  return rns::Modulus(rns::select_prime_chain(36, std::max(log_n, 5), 1)[0]);
}

/// Coefficient k of the negacyclic product a*b mod (X^N + 1, q), in O(N).
u64 negacyclic_coeff(const std::vector<u64>& a, const std::vector<u64>& b,
                     std::size_t k, const rns::Modulus& q) {
  const std::size_t n = a.size();
  u64 acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // X^i * X^(k-i): the wrapped terms (i > k) pick up X^N = -1.
    const u64 t = q.mul(a[i], b[(k + n - i) % n]);
    acc = i <= k ? q.add(acc, t) : q.sub(acc, t);
  }
  return acc;
}

class NttParamTest : public ::testing::TestWithParam<int> {};

TEST_P(NttParamTest, ForwardInverseRoundtrip) {
  const int log_n = GetParam();
  const rns::Modulus q = test_modulus(log_n);
  NttTables tables(q, log_n);
  std::mt19937_64 rng(log_n);
  std::vector<u64> a(tables.n());
  for (u64& v : a) v = rng() % q.value();
  std::vector<u64> original = a;
  tables.forward(a);
  EXPECT_NE(a, original);  // transform does something
  tables.inverse(a);
  EXPECT_EQ(a, original);
}

TEST_P(NttParamTest, ConvolutionTheorem) {
  const int log_n = GetParam();
  const rns::Modulus q = test_modulus(log_n);
  NttTables tables(q, log_n);
  std::mt19937_64 rng(7 + log_n);
  std::vector<u64> a(tables.n()), b(tables.n());
  for (u64& v : a) v = rng() % q.value();
  for (u64& v : b) v = rng() % q.value();
  std::vector<u64> fa = a, fb = b;
  tables.forward(fa);
  tables.forward(fb);
  std::vector<u64> c(tables.n());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = q.mul(fa[i], fb[i]);
  tables.inverse(c);

  // Every coefficient up to 2^9; above that a seeded sample of 64, each
  // against its own O(N) negacyclic sum.
  std::vector<std::size_t> ks(c.size());
  std::iota(ks.begin(), ks.end(), std::size_t{0});
  if (log_n > 9) {
    ks.resize(64);
    for (std::size_t& k : ks) k = rng() % c.size();
  }
  for (const std::size_t k : ks) {
    EXPECT_EQ(c[k], negacyclic_coeff(a, b, k, q)) << "k=" << k;
  }
}

TEST_P(NttParamTest, Linearity) {
  const int log_n = GetParam();
  const rns::Modulus q = test_modulus(log_n);
  NttTables tables(q, log_n);
  std::mt19937_64 rng(99);
  std::vector<u64> a(tables.n()), b(tables.n()), sum(tables.n());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng() % q.value();
    b[i] = rng() % q.value();
    sum[i] = q.add(a[i], b[i]);
  }
  tables.forward(a);
  tables.forward(b);
  tables.forward(sum);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], q.add(a[i], b[i]));
  }
}

TEST_P(NttParamTest, DeltaTransformsToAllOnes) {
  // NTT of delta_0 is the all-ones vector in any evaluation order.
  const int log_n = GetParam();
  const rns::Modulus q = test_modulus(log_n);
  NttTables tables(q, log_n);
  std::vector<u64> a(tables.n(), 0);
  a[0] = 1;
  tables.forward(a);
  for (u64 v : a) EXPECT_EQ(v, 1u);
}

TEST_P(NttParamTest, MonomialEvaluationsAreOddPsiPowers) {
  // NTT of X must produce exactly the multiset { psi^{2j+1} }.
  const int log_n = GetParam();
  const rns::Modulus q = test_modulus(log_n);
  NttTables tables(q, log_n);
  std::vector<u64> a(tables.n(), 0);
  a[1] = 1;
  tables.forward(a);
  std::vector<u64> expected(tables.n());
  for (std::size_t j = 0; j < tables.n(); ++j) {
    expected[j] = q.pow(tables.psi(), 2 * j + 1);
  }
  std::sort(a.begin(), a.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(a, expected);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttParamTest,
                         ::testing::Values(4, 6, 8, 9, 10, 12, 13));

TEST(Ntt, LargeDegreeRoundtrip) {
  const rns::Modulus q = test_modulus(16);
  NttTables tables(q, 16);
  std::mt19937_64 rng(1);
  std::vector<u64> a(tables.n());
  for (u64& v : a) v = rng() % q.value();
  std::vector<u64> original = a;
  tables.forward(a);
  tables.inverse(a);
  EXPECT_EQ(a, original);
}

TEST(Ntt, PrimitiveRootProperties) {
  const rns::Modulus q = test_modulus(10);
  const u64 psi = find_primitive_2n_root(q, 10);
  // psi^N == -1, psi^{2N} == 1.
  EXPECT_EQ(q.pow(psi, 1024), q.value() - 1);
  EXPECT_EQ(q.pow(psi, 2048), 1u);
  // Primitive: psi^k != 1 for all proper divisors of 2N.
  for (u64 k : {u64{2}, u64{512}, u64{1024}}) {
    EXPECT_NE(q.pow(psi, k), 1u);
  }
}

TEST(Ntt, OpCountsAreAnalytic) {
  const rns::Modulus q = test_modulus(8);
  NttTables tables(q, 8);
  std::vector<u64> a(256, 1);
  OpCounterScope scope;
  tables.forward(a);
  const OpCounts fwd = scope.delta();
  EXPECT_EQ(fwd.ntt_mul, 128u * 8);  // (N/2) log N
  EXPECT_EQ(fwd.ntt_add, 256u * 8);
  tables.inverse(a);
  const OpCounts both = scope.delta();
  EXPECT_EQ(both.ntt_mul, 128u * 8 + 128 * 8 + 256);  // + N for N^{-1} scale
}

TEST(Ntt, RejectsIncompatibleModulus) {
  // 17 == 1 mod 16 but not mod 32: degree 16 NTT must be rejected.
  EXPECT_THROW(NttTables(rns::Modulus(17), 4), InvalidArgument);
  EXPECT_NO_THROW(NttTables(rns::Modulus(97), 4));  // 97 == 1 mod 32
}

TEST(Ntt, SchoolbookNegacyclicWraparound) {
  // (X^{N-1})^2 = X^{2N-2} = -X^{N-2} in the negacyclic ring.
  const rns::Modulus q(97);
  std::vector<u64> a(4, 0), b(4, 0);
  a[3] = 1;
  b[3] = 1;
  const std::vector<u64> c = negacyclic_mult_schoolbook(a, b, q);
  EXPECT_EQ(c[2], q.value() - 1);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], 0u);
  EXPECT_EQ(c[3], 0u);
}

}  // namespace
}  // namespace abc::xf
