// The key-cache battery: compressed-record round trips (records built
// from wire frames, a halves seed-regenerated), capacity validation,
// single-flight regeneration under concurrent requests, LRU
// eviction-then-refetch bit-identity, pinned-entry survival under capacity
// pressure, exact round-robin hit/miss/eviction counts per capacity, server
// responses bit-identical to serial at thrash-level capacity on every
// worker count, the server.key_regen fault drill (typed error, never a
// poisoned cache entry), and 64 served rotations through a one-key cache.
//
// Suite names all contain "KeyCache" — the TSan CI leg's -R filter picks
// the concurrency tests up by that token.

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <random>
#include <thread>
#include <vector>

#include "ckks/evaluator.hpp"
#include "common/failpoint.hpp"
#include "engine/client_session.hpp"
#include "server/key_cache.hpp"
#include "server/server.hpp"

namespace abc {
namespace {

using server::KeyCache;
using server::Op;
using server::Server;
using server::ServerConfig;
using server::Status;

ckks::CkksParams small_params() { return ckks::CkksParams::test_small(10, 3); }

std::vector<std::vector<std::complex<double>>> random_batch(
    std::size_t batch, std::size_t slots, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<std::complex<double>>> msgs(batch);
  for (auto& m : msgs) {
    m.resize(slots);
    for (auto& z : m) z = {dist(rng), dist(rng)};
  }
  return msgs;
}

ckks::KeyBundleFrames frames_of(const engine::KeyBundle& kb) {
  return ckks::KeyBundleFrames{kb.public_key, kb.relin_key, kb.galois_keys};
}

ckks::RequestFrame make_request(u64 tenant, u64 id, Op op, i64 arg,
                                std::vector<u8> payload) {
  ckks::RequestFrame req;
  req.tenant = tenant;
  req.request_id = id;
  req.op = static_cast<u8>(op);
  req.op_arg = arg;
  req.payload = std::move(payload);
  return req;
}

Status status_of(const ckks::ResponseFrame& resp) {
  return static_cast<Status>(resp.status);
}

/// Bit-level equality of the first @p digits gadget digits of two keys.
::testing::AssertionResult digits_equal(const ckks::KeySwitchKey& a,
                                        const ckks::KeySwitchKey& b,
                                        std::size_t digits) {
  if (a.kind != b.kind || a.galois_elt != b.galois_elt) {
    return ::testing::AssertionFailure() << "kind/element mismatch";
  }
  if (a.digits() < digits || b.digits() < digits) {
    return ::testing::AssertionFailure()
           << "too few digits: " << a.digits() << " / " << b.digits()
           << " < " << digits;
  }
  for (std::size_t d = 0; d < digits; ++d) {
    if (a.b[d].limbs() != b.b[d].limbs() ||
        a.a[d].limbs() != b.a[d].limbs()) {
      return ::testing::AssertionFailure() << "limb count mismatch at " << d;
    }
    for (std::size_t l = 0; l < a.b[d].limbs(); ++l) {
      const auto ab = a.b[d].limb(l), bb = b.b[d].limb(l);
      const auto aa = a.a[d].limb(l), ba = b.a[d].limb(l);
      if (!std::equal(ab.begin(), ab.end(), bb.begin()) ||
          !std::equal(aa.begin(), aa.end(), ba.begin())) {
        return ::testing::AssertionFailure()
               << "digit " << d << " limb " << l << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A registered-tenant fixture piece: client-generated keys parsed into
/// the compressed TenantSession shape, on a server-side context.
struct ParsedTenant {
  std::shared_ptr<const ckks::CkksContext> ctx;
  server::TenantSession session;

  explicit ParsedTenant(const ckks::CkksParams& params,
                        std::vector<int> rotations) {
    const auto client_ctx = ckks::CkksContext::create(params);
    engine::ClientSession client(
        client_ctx, engine::SessionConfig{std::move(rotations)});
    ctx = ckks::CkksContext::create(params);
    session = server::parse_tenant_bundle(
        ctx, frames_of(client.key_bundle()));
  }
};

struct KeyCacheTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Compressed-record round trips
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, CompressedRecordRoundTripsBitIdentically) {
  const auto ctx = ckks::CkksContext::create(small_params());
  ckks::KeyGenerator gen(ctx);
  const ckks::SecretKey sk = gen.secret_key();
  const ckks::KeySwitchKey gk = gen.galois_key(sk, 3);
  const ckks::RelinKey rlk = gen.relin_key(sk);

  for (const ckks::KeySwitchKey* key : {&gk, &rlk.key}) {
    // The record is built from the key's wire frame, as registration
    // builds it.
    const ckks::CompressedKeySwitchKey rec = ckks::compress_key_switch_key(
        ctx, ckks::serialize_key_switch_key(ctx, *key));
    // The last gadget digit is unreachable by hybrid key switching and is
    // dropped; the a halves are never held.
    EXPECT_EQ(rec.stored_digits, ctx->max_limbs() - 1);
    EXPECT_LT(rec.resident_bytes(), rec.expanded_bytes(ctx->n()) / 5);
    const ckks::KeySwitchKey back = ckks::expand_key_switch_key(ctx, rec);
    EXPECT_EQ(back.digits(), rec.stored_digits);
    EXPECT_TRUE(digits_equal(back, *key, rec.stored_digits));
  }
}

// ---------------------------------------------------------------------------
// Capacity validation
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, CapacityZeroIsRejected) {
  EXPECT_THROW(KeyCache cache(0), InvalidArgument);
  ServerConfig cfg;
  cfg.param_sets = {small_params()};
  cfg.key_cache_bytes = 0;
  EXPECT_THROW(Server srv(cfg), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Single-flight regeneration
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, SingleFlightUnderConcurrentRequests) {
  ParsedTenant tenant(small_params(), {1});
  KeyCache cache(256u << 20);
  constexpr int kThreads = 8;

  std::atomic<int> arrived{0};
  std::vector<std::shared_ptr<const ckks::KeySwitchKey>> handles(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      handles[static_cast<std::size_t>(t)] = cache.get(
          tenant.session.id, tenant.session.gks[0], tenant.session.ctx);
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one regeneration: 7 of the 8 concurrent requests shared the
  // one flight (as a wait or a later hit), and everyone got the same key.
  const KeyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<u64>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(handles[static_cast<std::size_t>(t)], nullptr);
    EXPECT_EQ(handles[static_cast<std::size_t>(t)].get(), handles[0].get());
  }
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, EvictionThenRefetchIsBitIdentical) {
  ParsedTenant tenant(small_params(), {1, 2});
  const auto& s = tenant.session;
  KeyCache cache(1);  // thrash capacity: nothing survives its unpin

  ckks::KeySwitchKey first_copy = [&] {
    const auto h = cache.get(s.id, s.gks[0], s.ctx);
    return *h;  // deep copy while pinned
  }();
  (void)cache.get(s.id, s.gks[1], s.ctx);  // displace
  const auto again = cache.get(s.id, s.gks[0], s.ctx);

  const KeyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);  // every fetch regenerated
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_TRUE(digits_equal(*again, first_copy, first_copy.digits()));
}

TEST_F(KeyCacheTest, WarmEntryIsSharedNotRegenerated) {
  ParsedTenant tenant(small_params(), {1});
  const auto& s = tenant.session;
  KeyCache cache(256u << 20);
  const auto a = cache.get(s.id, s.gks[0], s.ctx);
  const auto b = cache.get(s.id, s.gks[0], s.ctx);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(KeyCacheTest, PinnedEntrySurvivesCapacityPressure) {
  ParsedTenant tenant(small_params(), {1, 2});
  const auto& s = tenant.session;
  KeyCache cache(1);

  auto a = cache.get(s.id, s.gks[0], s.ctx);
  auto b = cache.get(s.id, s.gks[1], s.ctx);
  // Both pinned: the budget overshoots rather than evicting in-use keys.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_GT(cache.stats().resident_bytes, cache.capacity_bytes());

  b.reset();  // unpin -> the over-budget reclaim may take only b
  EXPECT_EQ(cache.stats().evictions, 1u);
  // a's key is still the real key material, mid-pressure.
  const ckks::KeySwitchKey expect = ckks::expand_key_switch_key(s.ctx,
                                                                s.gks[0]);
  EXPECT_TRUE(digits_equal(*a, expect, expect.digits()));

  a.reset();
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(KeyCacheTest, RoundRobinCountsPerCapacity) {
  // Two rounds over every (tenant, rotation key) pair, the adversarial
  // pattern for an LRU below its working set: exact hit, miss and
  // eviction counts and resident bytes at a 1-byte, a 4-key and a
  // whole-working-set capacity.
  constexpr std::size_t kTenants = 3;
  ParsedTenant tenant(small_params(), {1, 2});
  // Each tenant keeps a fraction of its eagerly expanded key bytes.
  EXPECT_LT(5 * tenant.session.compressed_key_bytes(),
            tenant.session.expanded_key_bytes());
  std::vector<server::TenantSession> sessions(kTenants, tenant.session);
  for (std::size_t t = 0; t < kTenants; ++t) sessions[t].id = t + 1;

  const auto& s0 = sessions.front();
  const std::size_t key_bytes = [&] {
    KeyCache probe(256u << 20);
    (void)probe.get(s0.id, s0.gks[0], s0.ctx);
    return probe.stats().resident_bytes;
  }();
  const std::size_t keys = kTenants * s0.gks.size();  // the working set
  struct Case {
    std::size_t capacity;
    u64 hits, misses, evictions;
    std::size_t resident;
  };
  const Case cases[] = {
      {1, 0, 2 * keys, 2 * keys, 0},
      {4 * key_bytes, 0, 2 * keys, 2 * keys - 4, 4 * key_bytes},
      {keys * key_bytes, keys, keys, 0, keys * key_bytes},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity));
    KeyCache cache(c.capacity);
    for (int round = 0; round < 2; ++round) {
      for (const auto& s : sessions) {
        for (const auto& rec : s.gks) (void)cache.get(s.id, rec, s.ctx);
      }
    }
    const KeyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, c.hits);
    EXPECT_EQ(stats.misses, c.misses);
    EXPECT_EQ(stats.evictions, c.evictions);
    EXPECT_EQ(stats.resident_bytes, c.resident);
  }
}

// ---------------------------------------------------------------------------
// Server responses at thrash capacity
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, ThrashCapacityBitIdenticalToSerialAtEveryWorkerCount) {
  const ckks::CkksParams params = small_params();
  const auto client_ctx = ckks::CkksContext::create(params);
  engine::ClientSession client(client_ctx,
                               engine::SessionConfig{{1, 2}});
  const ckks::KeyBundleFrames frames = frames_of(client.key_bundle());
  const auto msgs = random_batch(2, client_ctx->slots(), 77);
  const std::size_t eval_limbs = client_ctx->max_limbs() - 1;

  std::vector<ckks::RequestFrame> requests;
  for (std::size_t i = 0; i < 6; ++i) {
    const Op op = (i % 3 == 2) ? Op::kSquare : Op::kRotate;
    const i64 arg = op == Op::kRotate ? static_cast<i64>(i % 2 + 1) : 0;
    requests.push_back(make_request(1, i + 1, op, arg,
                                    client.upload(msgs, eval_limbs)));
  }

  // Reference: a generously sized cache, serial execution.
  std::vector<std::vector<u8>> reference;
  {
    ServerConfig cfg;
    cfg.param_sets = {params};
    Server ref(cfg);
    ASSERT_EQ(ref.register_tenant(params, frames), 1u);
    for (const auto& req : requests) {
      const auto resp = ref.process_serial(req);
      ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
      reference.push_back(resp.payload);
    }
  }

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.param_sets = {params};
    cfg.key_cache_bytes = 1;  // maximal thrash: every request regenerates
    Server srv(cfg);
    ASSERT_EQ(srv.register_tenant(params, frames), 1u);

    std::vector<std::future<ckks::ResponseFrame>> futures;
    for (const auto& req : requests) futures.push_back(srv.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const auto resp = futures[i].get();
      ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
      EXPECT_EQ(resp.payload, reference[i]) << "request " << i;
    }
    const KeyCache::Stats stats = srv.key_cache_stats();
    // Every fetch either regenerated or joined a concurrent flight for
    // the same key (single-flight coalescing) — never a warm entry.
    EXPECT_EQ(stats.misses + stats.hits, requests.size());
    EXPECT_GE(stats.misses, 3u);  // >= one per distinct key used
    EXPECT_GT(stats.evictions, 0u);
  }
}

// ---------------------------------------------------------------------------
// Fault drill: server.key_regen
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, KeyRegenFaultIsTypedAndNeverPoisonsTheCache) {
  const ckks::CkksParams params = small_params();
  const auto client_ctx = ckks::CkksContext::create(params);
  engine::ClientSession client(client_ctx, engine::SessionConfig{{1}});
  const ckks::KeyBundleFrames frames = frames_of(client.key_bundle());
  const auto msgs = random_batch(2, client_ctx->slots(), 13);
  const auto payload = client.upload(msgs, client_ctx->max_limbs() - 1);

  ServerConfig cfg;
  cfg.param_sets = {params};
  Server srv(cfg);
  ASSERT_EQ(srv.register_tenant(params, frames), 1u);
  const auto reference =
      srv.process_serial(make_request(1, 99, Op::kRotate, 1, payload));
  ASSERT_EQ(status_of(reference), Status::kOk) << reference.error;

  ServerConfig cfg2 = cfg;
  Server srv2(cfg2);
  ASSERT_EQ(srv2.register_tenant(params, frames), 1u);

  fail::Policy p;
  p.action = fail::Action::kThrowRuntimeError;
  p.max_fires = 1;
  fail::arm(fail::points::kServerKeyRegen, p);

  // Transient regeneration failure: a typed per-request error...
  const auto failed =
      srv2.call(make_request(1, 1, Op::kRotate, 1, payload));
  EXPECT_EQ(status_of(failed), Status::kInternal);
  EXPECT_FALSE(failed.error.empty());

  // ...and no poisoned entry: the identical retry regenerates from
  // scratch and succeeds, bit-identical to the never-faulted server.
  const auto retried =
      srv2.call(make_request(1, 2, Op::kRotate, 1, payload));
  ASSERT_EQ(status_of(retried), Status::kOk) << retried.error;
  EXPECT_EQ(retried.payload, reference.payload);

  const KeyCache::Stats stats = srv2.key_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // the failed flight + the retry
  EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------------
// One key pinned at a time through the server's rotate path
// ---------------------------------------------------------------------------

TEST_F(KeyCacheTest, SixtyFourServedRotationsThroughOneKeyCache) {
  std::vector<int> steps(64);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    steps[i] = static_cast<int>(i + 1);
  }
  const ckks::CkksParams params = small_params();
  const auto client_ctx = ckks::CkksContext::create(params);
  engine::ClientSession client(client_ctx, engine::SessionConfig{steps});
  const ckks::KeyBundleFrames frames = frames_of(client.key_bundle());
  const auto msgs = random_batch(1, client_ctx->slots(), 41);
  const auto upload = client.upload(msgs, client_ctx->max_limbs() - 1);

  // Eager reference: the same records, expanded up front.
  const auto ctx = ckks::CkksContext::create(params);
  const server::TenantSession parsed = server::parse_tenant_bundle(ctx, frames);
  const ckks::GaloisKeys gks = parsed.expand_gks();
  const auto cts = ckks::deserialize_ciphertext_batch(ctx, upload);
  ASSERT_EQ(cts.size(), 1u);
  const ckks::Evaluator eval(ctx);

  const std::size_t key_bytes = [&] {
    KeyCache probe(256u << 20);
    (void)probe.get(parsed.id, parsed.gks[0], ctx);
    return probe.stats().resident_bytes;
  }();
  ServerConfig cfg;
  cfg.param_sets = {params};
  cfg.key_cache_bytes = key_bytes;  // room for exactly one expanded key
  Server srv(cfg);
  ASSERT_EQ(srv.register_tenant(params, frames), 1u);

  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(steps[i]));
    const auto resp =
        srv.call(make_request(1, i + 1, Op::kRotate, steps[i], upload));
    ASSERT_EQ(status_of(resp), Status::kOk) << resp.error;
    EXPECT_LE(srv.key_cache_stats().resident_bytes, key_bytes);
    const std::vector<ckks::Ciphertext> eager{
        eval.rotate(cts[0], steps[i], gks)};
    EXPECT_EQ(resp.payload,
              ckks::serialize_ciphertext_batch(eager, cfg.bits_per_coeff));
  }
  const KeyCache::Stats stats = srv.key_cache_stats();
  EXPECT_EQ(stats.misses, steps.size());  // one regeneration per step
  EXPECT_GE(stats.evictions, steps.size() - 1);
}

}  // namespace
}  // namespace abc
