#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "poly/rns_poly.hpp"
#include "rns/ntt_prime.hpp"
#include "transform/op_counter.hpp"

namespace abc {
namespace {

std::vector<u64> test_primes(std::size_t count) {
  return rns::select_prime_chain(36, 10, count);
}

std::vector<i64> random_signed(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<i64> dist(-(i64{1} << 30), i64{1} << 30);
  std::vector<i64> v(n);
  for (i64& x : v) x = dist(rng);
  return v;
}

void expect_equal_polys(const poly::RnsPoly& a, const poly::RnsPoly& b) {
  ASSERT_EQ(a.limbs(), b.limbs());
  ASSERT_EQ(a.domain(), b.domain());
  for (std::size_t i = 0; i < a.limbs(); ++i) {
    std::span<const u64> la = a.limb(i);
    std::span<const u64> lb = b.limb(i);
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j], lb[j]) << "limb " << i << " coeff " << j;
    }
  }
}

/// Runs the same op sequence on a context built over @p backend and returns
/// the resulting polynomial (exercises NTT fwd/inv, add/sub/mul/fma,
/// scalar mul and RNS expansion through the backend).
poly::RnsPoly run_op_sequence(std::shared_ptr<backend::PolyBackend> be) {
  auto ctx = poly::PolyContext::create(10, test_primes(4), std::move(be));
  const std::size_t n = ctx->n();

  poly::RnsPoly a(ctx, 4, poly::Domain::kCoeff);
  poly::RnsPoly b(ctx, 4, poly::Domain::kCoeff);
  a.set_from_signed(random_signed(n, 1));
  b.set_from_signed(random_signed(n, 2));
  a.to_eval();
  b.to_eval();

  poly::RnsPoly acc = a;
  acc.mul_inplace(b);      // a*b
  acc.add_inplace(a);      // + a
  acc.fma_inplace(a, b);   // + a*b
  acc.sub_inplace(b);      // - b
  acc.mul_scalar_inplace(12345);
  acc.negate_inplace();
  acc.to_coeff();
  return acc;
}

TEST(Backend, ThreadPoolMatchesScalarBitExactly) {
  const poly::RnsPoly ref =
      run_op_sequence(std::make_shared<backend::ScalarBackend>());
  for (std::size_t threads : {1u, 2u, 8u}) {
    const poly::RnsPoly got = run_op_sequence(
        std::make_shared<backend::ThreadPoolBackend>(threads));
    expect_equal_polys(ref, got);
  }
}

TEST(Backend, ParallelForCoversEveryIndexOnce) {
  backend::ThreadPoolBackend pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<bool> bad_worker{false};
  pool.parallel_for(kCount, [&](std::size_t i, std::size_t worker) {
    if (worker >= pool.workers()) bad_worker = true;
    hits[i].fetch_add(1);
  });
  EXPECT_FALSE(bad_worker);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Backend, NestedParallelForRunsInlineOnWorker) {
  backend::ThreadPoolBackend pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t, std::size_t outer_worker) {
    pool.parallel_for(5, [&](std::size_t, std::size_t inner_worker) {
      EXPECT_EQ(inner_worker, outer_worker);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(Backend, OpCountsAggregateToCaller) {
  // The analytic Fig. 2b accounting must be backend-invariant: the caller
  // sees the same op totals whether the limbs ran serially or on a pool.
  auto count_ops = [](std::shared_ptr<backend::PolyBackend> be) {
    auto ctx = poly::PolyContext::create(10, test_primes(4), std::move(be));
    poly::RnsPoly p(ctx, 4, poly::Domain::kCoeff);
    p.set_from_signed(random_signed(ctx->n(), 3));
    xf::OpCounterScope scope;
    p.to_eval();
    poly::RnsPoly q = p;
    q.mul_inplace(p);
    q.to_coeff();
    return scope.delta();
  };
  const xf::OpCounts scalar =
      count_ops(std::make_shared<backend::ScalarBackend>());
  const xf::OpCounts pooled =
      count_ops(std::make_shared<backend::ThreadPoolBackend>(4));
  EXPECT_EQ(scalar.ntt_mul, pooled.ntt_mul);
  EXPECT_EQ(scalar.ntt_add, pooled.ntt_add);
  EXPECT_EQ(scalar.poly_mul, pooled.poly_mul);
  EXPECT_EQ(scalar.poly_add, pooled.poly_add);
  EXPECT_EQ(scalar.total(), pooled.total());
  EXPECT_GT(pooled.ntt_mul, 0u);
}

TEST(Backend, FusedMultiplySubtractMatchesTheUnfusedChainAndItsCounts) {
  // set_fms is the symmetric-encrypt combine c0 = (m+e) - a*s with the
  // secret's limb prefix read in place: same residues and same op counts
  // as the prefix copy + mul + negate + add chain it replaces.
  for (std::size_t threads : {0u, 2u}) {
    std::shared_ptr<backend::PolyBackend> be =
        threads == 0 ? std::shared_ptr<backend::PolyBackend>(
                           std::make_shared<backend::ScalarBackend>())
                     : std::make_shared<backend::ThreadPoolBackend>(threads);
    auto ctx = poly::PolyContext::create(10, test_primes(4), std::move(be));
    poly::RnsPoly base(ctx, 3, poly::Domain::kCoeff);
    poly::RnsPoly a(ctx, 3, poly::Domain::kCoeff);
    poly::RnsPoly s(ctx, 4, poly::Domain::kCoeff);  // longer than base
    base.set_from_signed(random_signed(ctx->n(), 4));
    a.set_from_signed(random_signed(ctx->n(), 5));
    s.set_from_signed(random_signed(ctx->n(), 6));
    base.to_eval();
    a.to_eval();
    s.to_eval();

    xf::OpCounterScope unfused_scope;
    poly::RnsPoly want = a;
    want.mul_inplace(s.prefix_copy(3));
    want.negate_inplace();
    want.add_inplace(base);
    const xf::OpCounts unfused = unfused_scope.delta();

    xf::OpCounterScope fused_scope;
    poly::RnsPoly got(ctx, 1, poly::Domain::kCoeff);
    got.set_fms(base, a, s);
    const xf::OpCounts fused = fused_scope.delta();

    expect_equal_polys(want, got);
    EXPECT_EQ(fused.poly_mul, unfused.poly_mul);
    EXPECT_EQ(fused.poly_add, unfused.poly_add);
    EXPECT_EQ(fused.total(), unfused.total());
    EXPECT_THROW(got.set_fms(base, a, a.prefix_copy(2)), InvalidArgument);
  }
}

TEST(Backend, JobExceptionRethrownOnCaller) {
  // A throwing job must surface as a normal exception on the submitting
  // thread (same caller-visible behavior as ScalarBackend), not terminate
  // the process, and the pool must stay usable afterwards.
  backend::ThreadPoolBackend pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i, std::size_t) {
                          if (i == 3) throw InvalidArgument("boom");
                        }),
      InvalidArgument);
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

/// An exception that owns a refcounted token, so a test can prove the
/// swallowed copy was actually destroyed (no leaked exception state).
struct TokenError : std::runtime_error {
  std::shared_ptr<int> token;
  explicit TokenError(std::shared_ptr<int> t)
      : std::runtime_error("token error"), token(std::move(t)) {}
};

TEST(Backend, TwoThrowingWorkersFirstWinsSecondSwallowedWithoutLeak) {
  // Two items throw in the same region. Exactly one exception reaches the
  // submitting thread (first-exception-wins); the second is swallowed —
  // and must be destroyed, not parked forever. The token's use_count
  // returning to 1 proves both copies (and the parked exception_ptr)
  // were released once the region and its Task object wound down.
  backend::ThreadPoolBackend pool(2);
  auto token = std::make_shared<int>(42);
  int caught = 0;
  try {
    pool.parallel_for(16, [&](std::size_t i, std::size_t) {
      if (i == 0 || i == 15) throw TokenError(token);
    });
  } catch (const TokenError& e) {
    ++caught;
    EXPECT_EQ(*e.token, 42);
  }
  EXPECT_EQ(caught, 1);
  // Workers release their Task reference when they re-enter the wait; give
  // them a moment rather than racing the teardown.
  for (int spin = 0; spin < 2000 && token.use_count() != 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(token.use_count(), 1)
      << "a swallowed or parked exception still holds the token";
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(Backend, ThrowInsideNestedRegionUnwindsToCaller) {
  // A nested region runs inline on the owning worker, so a throw there
  // unwinds into the outer job, where run_share parks it — the caller
  // sees one normal exception and the pool survives.
  backend::ThreadPoolBackend pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t i, std::size_t) {
                          pool.parallel_for(3, [&](std::size_t j,
                                                   std::size_t) {
                            if (i == 1 && j == 2) {
                              throw InvalidArgument("nested boom");
                            }
                          });
                        }),
      InvalidArgument);
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(Backend, EveryWorkerThrowingStillCompletesTheRegion) {
  // Worst case: every single item throws. The region must still complete
  // (items count as done even when their job threw), rethrow exactly one
  // exception, and leave the pool reusable.
  backend::ThreadPoolBackend pool(4);
  std::atomic<int> attempts{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t, std::size_t) {
                                   attempts.fetch_add(1);
                                   throw InvalidArgument("all fail");
                                 }),
               InvalidArgument);
  EXPECT_EQ(attempts.load(), 64);
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(Backend, DefaultBackendIsScalar) {
  auto ctx = poly::PolyContext::create(10, test_primes(2));
  EXPECT_STREQ(ctx->backend().name(), "scalar");
  EXPECT_EQ(ctx->backend().workers(), 1u);
}

TEST(Backend, WorkerCountDefaultsToHardwareConcurrency) {
  backend::ThreadPoolBackend pool;
  EXPECT_GE(pool.workers(), 1u);
  backend::ThreadPoolBackend fixed(3);
  EXPECT_EQ(fixed.workers(), 3u);
  EXPECT_STREQ(fixed.name(), "thread_pool");
}

}  // namespace
}  // namespace abc
