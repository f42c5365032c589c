#include <gtest/gtest.h>

#include <set>

#include "common/bitops.hpp"
#include "common/math_util.hpp"
#include "rns/ntt_prime.hpp"

namespace abc::rns {
namespace {

TEST(NttPrime, EnumerationSatisfiesCongruenceAndPrimality) {
  for (int log_n : {10, 13}) {
    auto primes = enumerate_ntt_primes(30, log_n);
    ASSERT_FALSE(primes.empty());
    const u64 two_n = u64{1} << (log_n + 1);
    for (const auto& p : primes) {
      EXPECT_TRUE(is_prime_u64(p.value));
      EXPECT_EQ(p.value % two_n, 1u);
      EXPECT_EQ(bit_length(p.value), 30);
    }
  }
}

TEST(NttPrime, KReconstructsValue) {
  auto primes = enumerate_ntt_primes(32, 13);
  for (const auto& p : primes) {
    const i128 reconstructed = (static_cast<i128>(1) << 32) +
                               static_cast<i128>(p.k) * (i128{1} << 14) + 1;
    EXPECT_EQ(static_cast<i128>(p.value), reconstructed);
  }
}

TEST(NttPrime, SparseSubsetHasSparseForm) {
  auto sparse = enumerate_sparse_ntt_primes(36, 16, 3);
  ASSERT_FALSE(sparse.empty());
  for (const auto& p : sparse) {
    EXPECT_LE(p.q_weight, 4);  // leading term + at most 3 k-terms
    EXPECT_LE(naf_weight(static_cast<i128>(p.value) - 1), 4);
  }
  // Sparse set is a strict subset of the full enumeration.
  auto all = enumerate_ntt_primes(36, 16);
  EXPECT_LT(sparse.size(), all.size());
  EXPECT_GT(sparse.size(), 0u);
}

TEST(NttPrime, PaperClaimOrderOfMagnitude) {
  // Paper Sec. IV-A: "the required 32-36 bit primes amount to a total of
  // 443". Our operationalization of sparsity (NAF weight of Q-1 <= 4)
  // should land in the same regime; the exact figure is printed by
  // bench_table1_modmul and recorded in docs/EXPERIMENTS.md E5.
  const std::size_t count = count_sparse_ntt_primes(32, 36, 16, 3);
  EXPECT_GT(count, 50u);
  EXPECT_LT(count, 2000u);
}

TEST(NttPrime, SelectChainDistinctAndValid) {
  for (std::size_t count : {2u, 8u, 24u}) {
    auto chain = select_prime_chain(36, 16, count);
    EXPECT_EQ(chain.size(), count);
    std::set<u64> unique(chain.begin(), chain.end());
    EXPECT_EQ(unique.size(), count);
    for (u64 q : chain) {
      EXPECT_TRUE(is_prime_u64(q));
      EXPECT_EQ(q % (u64{1} << 17), 1u);
      EXPECT_EQ(bit_length(q), 36);
    }
  }
}

TEST(NttPrime, SmallDegreeChains) {
  // Sweep the paper's bootstrappable degrees.
  for (int log_n : {13, 14, 15, 16}) {
    auto chain = select_prime_chain(36, log_n, 4);
    for (u64 q : chain) {
      EXPECT_EQ(q % (u64{1} << (log_n + 1)), 1u);
    }
  }
}

}  // namespace
}  // namespace abc::rns
