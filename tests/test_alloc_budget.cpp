// Heap-allocation budgets for the client hot paths and for the tables a
// context holds. This executable replaces the global operator new/delete
// with byte counters, so every allocation made while a measured call runs
// — on the calling thread or on a pool worker — is charged to that call.
// A budget of "the outputs plus one limb" catches any whole-polynomial
// temporary or deep copy (one polynomial is many limbs) while leaving room
// for small bookkeeping (a pool task, sampler tables). A second counter
// tracks the bytes still live (malloc_usable_size of each block), which is
// what a long-lived object such as a context holds.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>
#include <vector>

#include "backend/thread_pool_backend.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "engine/client_session.hpp"
#include "rns/ntt_prime.hpp"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};
std::atomic<std::size_t> g_live_bytes{0};  // wraps; read as differences

void* track_live(void* p) noexcept {
  if (p) g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p) g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return track_live(std::malloc(size == 0 ? 1 : size));
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return track_live(std::aligned_alloc(a, (size + a - 1) / a * a));
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace abc::ckks {
namespace {

/// Bytes allocated while @p f runs.
template <class F>
std::size_t allocated_by(F&& f) {
  const std::size_t before = g_allocated_bytes.load();
  f();
  return g_allocated_bytes.load() - before;
}

/// Bytes allocated while @p f runs and not freed by the time it returns
/// (negative if it freed more than it allocated).
template <class F>
std::ptrdiff_t retained_by(F&& f) {
  const std::size_t before = g_live_bytes.load();
  f();
  return static_cast<std::ptrdiff_t>(g_live_bytes.load() - before);
}

std::size_t limb_bytes(const CkksContext& ctx) { return ctx.n() * sizeof(u64); }

std::vector<std::complex<double>> random_slots(std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> v(count);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

TEST(AllocBudget, CounterSeesAllocations) {
  // Guards the harness itself: a vector of N words is charged N words.
  std::optional<std::vector<u64>> v;
  EXPECT_GE(allocated_by([&] { v.emplace(4096); }), 4096 * sizeof(u64));
}

TEST(AllocBudget, PaperPointEncryptAllocatesOnlyItsOutputs) {
  // At the paper point a steady-state encryption (after one warm-up call
  // on the same encryptor) allocates its two output components and nothing
  // polynomial-sized besides, in both modes and under a worker pool.
  for (const std::size_t workers : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    std::shared_ptr<backend::PolyBackend> be;
    if (workers != 0) {
      be = std::make_shared<backend::ThreadPoolBackend>(workers);
    }
    const auto ctx = CkksContext::create(CkksParams::bootstrappable(), be);
    const std::size_t limbs = ctx->max_limbs();
    const std::size_t budget = (2 * limbs + 1) * limb_bytes(*ctx);

    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secret_key();
    const Plaintext pt =
        encoder.encode(random_slots(encoder.slots(), 1), limbs);
    Encryptor symmetric(ctx, sk);
    Encryptor public_key(ctx, keygen.public_key(sk));

    for (Encryptor* enc : {&symmetric, &public_key}) {
      SCOPED_TRACE(enc->mode() == EncryptMode::kPublicKey ? "public key"
                                                          : "symmetric");
      (void)enc->encrypt(pt);  // warm-up: sizes the encryptor's scratch
      std::optional<Ciphertext> ct;
      const u64 id = enc->reserve_stream_ids(1);
      const std::size_t bytes = allocated_by(
          [&] { ct.emplace(enc->encrypt(pt, id)); });
      EXPECT_LE(bytes, budget);
      EXPECT_GE(bytes, 2 * limbs * limb_bytes(*ctx));  // outputs counted
    }
  }
}

TEST(AllocBudget, PaperPointContextHoldsHalfSizeSharedTables) {
  // What a context holds once built: per prime the forward twiddles and
  // their quotients (two N-word arrays; the inverse is derived from them),
  // plus the DWT plan's bit-reversed powers and slot map. Both are shared
  // per parameter set (NttTables::shared, CkksDwtPlan::shared). The slack
  // covers the RNS basis constants, the prime list and block rounding: a
  // quarter of one prime's tables, where a stored inverse table would add a
  // whole prime's worth per prime.
  const CkksParams params = CkksParams::bootstrappable();
  const std::size_t n = params.n();
  const std::ptrdiff_t tables_per_prime = 2 * n * sizeof(u64);
  const std::ptrdiff_t dwt_plan =
      n * (sizeof(xf::Cx<double>) + sizeof(std::size_t));
  const std::ptrdiff_t slack = tables_per_prime / 4;
  const auto limbs = static_cast<std::ptrdiff_t>(params.num_limbs);
  // The process-wide prime search memo is not the context's.
  (void)rns::select_prime_chain(params.prime_bits, params.log_n,
                                params.num_limbs);

  std::shared_ptr<const CkksContext> first;
  const std::ptrdiff_t first_bytes =
      retained_by([&] { first = CkksContext::create(params); });
  EXPECT_LE(first_bytes, limbs * tables_per_prime + dwt_plan + slack);
  EXPECT_GE(first_bytes, limbs * tables_per_prime + dwt_plan);

  // A second context over the same parameters reuses the first one's
  // tables and DWT plan, and holds only the slack besides.
  std::shared_ptr<const CkksContext> second;
  const std::ptrdiff_t second_bytes =
      retained_by([&] { second = CkksContext::create(params); });
  EXPECT_LE(second_bytes, slack);
  EXPECT_EQ(&first->poly_context()->ntt(0), &second->poly_context()->ntt(0));
  EXPECT_EQ(&first->dwt(), &second->dwt());
}

TEST(AllocBudget, WarmContextCreateAllocatesLittleItDoesNotKeep) {
  // With the prime search memo, the NTT tables and the DWT plan warm, a
  // second context allocates what it keeps (the basis constants) plus a
  // little scratch: 0.05 MB measured (Release, x86-64). The transient
  // budget sits below the 0.7 MB that copying the memoized prime list and
  // its sparse subset on each create would add (1.12 MB transient with the
  // copies). The cumulative budget is 192 KiB for the basis constants
  // (64 KB) and that scratch: 0.11 MB measured, where a DWT plan of its own
  // adds 1.5 MiB and rebuilding every prefix's q/q_i products from scratch
  // in the RNS basis (O(L^3) big-integer temporaries) 0.35 MB more.
  constexpr std::size_t kTransientBudget = 512 * 1024;
  const CkksParams params = CkksParams::bootstrappable();
  const auto first = CkksContext::create(params);
  std::shared_ptr<const CkksContext> second;
  const std::size_t live_before = g_live_bytes.load();
  const std::size_t allocated =
      allocated_by([&] { second = CkksContext::create(params); });
  const std::size_t retained = g_live_bytes.load() - live_before;
  EXPECT_LE(allocated - retained, kTransientBudget)
      << allocated << " B allocated, " << retained << " B retained";
  EXPECT_LE(allocated, 192 * 1024)
      << allocated << " B allocated, " << retained << " B retained";
}

TEST(AllocBudget, PaperPointEchoRoundAllocatesNoCiphertextCopy) {
  // One retrying round trip of one paper-point item through an echo
  // transport: encode, encrypt, the upload envelope and its echo, the
  // parsed reply, decrypt and decode. Measured at 184 limbs' worth
  // (96.5 MB, Release, x86-64); the budget is 8 x 24 = 192 limbs. A deep
  // copy of the ciphertext into the upload batch adds 2 x 24 limbs and
  // reads 233.
  const auto ctx = CkksContext::create(CkksParams::bootstrappable());
  engine::ClientSession session(ctx);
  const std::size_t limbs = ctx->max_limbs();
  const std::size_t budget = 8 * limbs * limb_bytes(*ctx);
  const std::vector<std::vector<std::complex<double>>> msgs = {
      random_slots(ctx->slots(), 4)};
  const engine::ClientSession::Transport echo = [](std::span<const u8> up) {
    return std::vector<u8>(up.begin(), up.end());
  };
  (void)session.round_trip_with_retry(msgs, limbs, echo, 1);  // warm-up
  engine::ClientSession::RetryReport report;
  const std::size_t bytes = allocated_by(
      [&] { report = session.round_trip_with_retry(msgs, limbs, echo, 1); });
  EXPECT_LE(bytes, budget);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.rounds, 1u);
}

TEST(AllocBudget, PaperPointClientSessionRetainsNoKeygenCopies) {
  // What a session holds once built at the paper point: five 24-limb
  // polynomials (sk, pk.b and pk.a, and the encryptor's and decryptor's
  // secret copies) plus 4 MiB for the encoders, per-worker scratch and
  // bookkeeping. A switching-key generator that kept its own s and -s for
  // the session's lifetime adds two more (24 MiB) and fails: 87.0 MiB.
  const auto ctx = CkksContext::create(CkksParams::bootstrappable());
  const std::size_t poly_bytes = ctx->max_limbs() * limb_bytes(*ctx);
  const auto budget =
      static_cast<std::ptrdiff_t>(5 * poly_bytes + 4 * 1024 * 1024);
  std::optional<engine::ClientSession> session;
  const std::ptrdiff_t kept = retained_by([&] { session.emplace(ctx); });
  EXPECT_LE(kept, budget) << kept << " B retained";
}

TEST(AllocBudget, CiphertextProductAllocatesOnlyItsOutputs) {
  const auto ctx = CkksContext::create(CkksParams::test_small(10, 3));
  const std::size_t limbs = ctx->max_limbs();
  CkksEncoder encoder(ctx);
  KeyGenerator keygen(ctx);
  const SecretKey sk = keygen.secret_key();
  Encryptor enc(ctx, keygen.public_key(sk));
  const Ciphertext a =
      enc.encrypt(encoder.encode(random_slots(encoder.slots(), 2), limbs));
  const Ciphertext b =
      enc.encrypt(encoder.encode(random_slots(encoder.slots(), 3), limbs));
  const Evaluator eval(ctx);

  std::optional<Ciphertext> product;
  const std::size_t bytes =
      allocated_by([&] { product.emplace(eval.mul(a, b)); });
  EXPECT_LE(bytes, (3 * limbs + 1) * limb_bytes(*ctx));
  ASSERT_EQ(product->size(), 3u);
}

}  // namespace
}  // namespace abc::ckks
