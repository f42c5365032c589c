#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <numeric>
#include <random>
#include <thread>

#include "ckks/context.hpp"
#include "common/bitops.hpp"
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

// -- inverse twiddles derived from the forward table -------------------------

// Every inverse kernel, the eager reference included, reads its twiddles
// through simd::inverse_twiddle, so this exhaustive check against powers
// of psi^{-1} is the independent one.
TEST(NttInverseTwiddle, DerivedPairsMatchPowersOfPsiInverse) {
  for (const ckks::CkksParams& p : {ckks::CkksParams::bootstrappable(),
                                    ckks::CkksParams::sweep_point(13, 6)}) {
    for (const u64 prime :
         rns::select_prime_chain(p.prime_bits, p.log_n, p.num_limbs)) {
      SCOPED_TRACE(testing::Message() << "q=" << prime << " log_n=" << p.log_n);
      const rns::Modulus q(prime);
      const NttTables tables(q, p.log_n);
      const simd::NttLayout L = tables.layout();
      std::size_t mismatches = 0;
      for (std::size_t m = 1; m < tables.n(); m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
          const simd::ShoupTwiddle tw = simd::inverse_twiddle(L, m, i);
          const u64 want =
              q.pow(tables.psi_inv(), bit_reverse(m + i, p.log_n));
          const u64 want_shoup52 =
              static_cast<u64>((static_cast<u128>(want) << 52) / prime);
          if (tw.w != want ||
              tw.w_shoup != rns::ShoupMul::make(want, q).quotient ||
              (tw.w_shoup >> 12) != want_shoup52) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

// -- one table per (prime, degree) per process --------------------------------

std::vector<const NttTables*> table_addresses(const poly::PolyContext& ctx) {
  std::vector<const NttTables*> out;
  for (std::size_t i = 0; i < ctx.max_limbs(); ++i) out.push_back(&ctx.ntt(i));
  return out;
}

TEST(NttTableSharing, EqualParamContextsShareTables) {
  const auto params = ckks::CkksParams::sweep_point(13, 6);
  const auto a = ckks::CkksContext::create(params);
  const auto b = ckks::CkksContext::create(params);
  EXPECT_EQ(table_addresses(*a->poly_context()),
            table_addresses(*b->poly_context()));
  // The DWT plan depends only on the degree and is shared the same way.
  EXPECT_EQ(&a->dwt(), &b->dwt());
}

TEST(NttTableSharing, PrefixChainSharesItsPrimesOnly) {
  const int log_n = 11;
  const std::vector<u64> chain = rns::select_prime_chain(36, log_n, 5);
  const std::vector<u64> prefix(chain.begin(), chain.begin() + 3);
  const auto full = poly::PolyContext::create(log_n, chain);
  const auto head = poly::PolyContext::create(log_n, prefix);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(&full->ntt(i), &head->ntt(i)) << "limb " << i;
  }
  // The same primes at another degree are other tables.
  const auto smaller = poly::PolyContext::create(log_n - 1, prefix);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_NE(&full->ntt(i), &smaller->ntt(i)) << "limb " << i;
    EXPECT_EQ(smaller->ntt(i).log_n(), log_n - 1);
  }
}

TEST(NttTableSharing, ReleasedContextsLeaveNothingPinned) {
  const auto params = ckks::CkksParams::sweep_point(12, 3);
  std::vector<std::weak_ptr<const NttTables>> watched;
  std::weak_ptr<const xf::CkksDwtPlan> watched_plan;
  {
    const auto a = ckks::CkksContext::create(params);
    const auto b = ckks::CkksContext::create(params);
    const auto plan = xf::CkksDwtPlan::shared(params.log_n);
    EXPECT_EQ(plan.get(), &a->dwt());
    watched_plan = plan;
    for (std::size_t i = 0; i < a->primes().size(); ++i) {
      const auto tables =
          NttTables::shared(rns::Modulus(a->primes()[i]), params.log_n);
      EXPECT_EQ(tables.get(), &b->poly_context()->ntt(i));
      watched.push_back(tables);
    }
  }
  // Only the registry's weak references are left: nothing owns the tables.
  for (const auto& w : watched) EXPECT_TRUE(w.expired());
  EXPECT_TRUE(watched_plan.expired());

  // A new context builds fresh tables, which the old references do not see.
  const auto c = ckks::CkksContext::create(params);
  for (std::size_t i = 0; i < watched.size(); ++i) {
    EXPECT_TRUE(watched[i].expired());
    const auto fresh =
        NttTables::shared(rns::Modulus(c->primes()[i]), params.log_n);
    EXPECT_EQ(fresh.get(), &c->poly_context()->ntt(i));
    EXPECT_EQ(fresh.use_count(), 2);  // c's context and `fresh`
  }
}

TEST(NttTableSharing, ConcurrentCreatesBuildOneTablePerPrime) {
  // No live context holds these primes, so the threads race to build them.
  const auto params = ckks::CkksParams::sweep_point(11, 4);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const ckks::CkksContext>> contexts(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      contexts[t] = ckks::CkksContext::create(params);
    });
  }
  for (std::thread& th : threads) th.join();
  const auto first = table_addresses(*contexts[0]->poly_context());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(table_addresses(*contexts[t]->poly_context()), first)
        << "thread " << t;
    EXPECT_EQ(&contexts[t]->dwt(), &contexts[0]->dwt()) << "thread " << t;
  }
}

}  // namespace
}  // namespace abc::xf
