// The fault matrix: every registered failpoint driven through the full
// client -> server -> client session round trip (encrypt batch -> wire
// envelope -> server key-switching rotations -> wire envelope -> verify),
// plus the per-item-fault mode the retry loop reads (encrypt and verify)
// and the throwing mode of the others. The invariants under
// injected faults: no deadlock, no crash — any failure is a catchable
// std::exception — no half-written output, and a clean rerun succeeds the
// moment the point is cleared.

#include <gtest/gtest.h>

#include <complex>
#include <exception>
#include <memory>
#include <random>
#include <vector>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/serialize.hpp"
#include "common/failpoint.hpp"
#include "engine/client_session.hpp"

namespace abc {
namespace {

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

/// Server leg of the round trip: deserialize the uploaded key bundle and
/// ciphertext batch, rotate every item left then right (net identity, two
/// key switches each — exercising serialize.key, serialize.batch,
/// serialize.ct and keyswitch.scratch), and reserialize the results.
std::vector<u8> serve(const std::shared_ptr<const ckks::CkksContext>& ctx,
                      const engine::KeyBundle& keys,
                      const std::vector<int>& rotations,
                      std::span<const u8> envelope, int bits) {
  ckks::Evaluator eval(ctx);
  (void)ckks::deserialize_public_key(ctx, keys.public_key);
  ckks::GaloisKeys gks;
  gks.slots = ctx->slots();
  gks.steps = rotations;
  for (const auto& wire : keys.galois_keys) {
    gks.keys.push_back(ckks::deserialize_key_switch_key(ctx, wire));
  }
  std::vector<ckks::Ciphertext> cts =
      ckks::deserialize_ciphertext_batch(ctx, envelope);
  ckks::KeySwitchScratch scratch;
  for (ckks::Ciphertext& ct : cts) {
    const ckks::Ciphertext left = eval.rotate(ct, 1, gks, &scratch);
    ct = eval.rotate(left, -1, gks, &scratch);
  }
  return ckks::serialize_ciphertext_batch(cts, bits);
}

/// The whole session round trip on a fresh context: client keygen + key
/// bundle, encrypt at one level below the top (the key-switch discipline),
/// server rotations, client verify. Every failpoint in the catalog sits on
/// this path.
engine::BatchVerifyReport full_round_trip(std::size_t threads) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(threads));
  engine::SessionConfig cfg;
  cfg.rotations = {1, -1};
  engine::ClientSession session(ctx, cfg);
  const engine::KeyBundle& keys = session.key_bundle();
  const auto msgs = random_batch(4, ctx->slots(), 42);
  const std::vector<u8> upload =
      session.upload(msgs, ctx->max_limbs() - 1);
  const std::vector<u8> response =
      serve(ctx, keys, cfg.rotations, upload, cfg.bits_per_coeff);
  const std::vector<ckks::Ciphertext> returned =
      ckks::deserialize_ciphertext_batch(ctx, response);
  // The plain decrypt path (engine.decrypt_item) and the verifying path
  // both run; two key switches per item, so use a loose explicit bound
  // instead of the single-hop default.
  (void)session.decrypt_batch(returned);
  return session.verify(returned, msgs, 1e-2);
}

/// The catalog's client round-trip points, the ones this matrix drives.
std::vector<const char*> client_points() {
  std::vector<const char*> names;
  for (const fail::points::Entry& e : fail::points::kAll) {
    if (e.path == fail::points::Path::kClient) names.push_back(e.name);
  }
  return names;
}

struct FaultMatrixTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(FaultMatrixTest, CleanRoundTripPasses) {
  const engine::BatchVerifyReport report = full_round_trip(4);
  EXPECT_TRUE(report.ok) << "worst error " << report.worst_abs_error;
  EXPECT_EQ(report.passed, 4u);
}

TEST_F(FaultMatrixTest, EveryCatalogPointSitsOnTheRoundTripPath) {
  // Arm each point in pure counting mode (nth = 0 can never fire) and
  // confirm the round trip actually crosses it — a catalog entry the trip
  // never hits is a point the matrix silently stopped testing.
  for (const char* name : client_points()) {
    fail::Policy policy;
    policy.trigger = fail::Trigger::kProbability;
    policy.probability = 0.0;
    fail::arm(name, policy);
  }
  const engine::BatchVerifyReport report = full_round_trip(4);
  EXPECT_TRUE(report.ok);
  for (const char* name : client_points()) {
    EXPECT_GE(fail::hits(name), 1u) << name << " never hit";
    EXPECT_EQ(fail::fires(name), 0u) << name;
  }
}

TEST_F(FaultMatrixTest, SingleTransientFaultNeverHangsAndClearsClean) {
  // One injected throw per point, anywhere on the trip: the call either
  // completes or surfaces a catchable std::exception — never a deadlock,
  // crash or std::terminate — and a rerun with the point cleared is green.
  for (const char* name : client_points()) {
    SCOPED_TRACE(name);
    fail::Policy policy;
    policy.max_fires = 1;
    fail::arm(name, policy);
    bool threw = false;
    try {
      (void)full_round_trip(4);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_GE(fail::hits(name), 1u) << "fault was never reachable";
    EXPECT_TRUE(threw || fail::fires(name) <= 1);
    fail::disarm_all();
    const engine::BatchVerifyReport clean = full_round_trip(4);
    EXPECT_TRUE(clean.ok) << "round trip did not recover after clearing "
                          << name;
  }
}

TEST_F(FaultMatrixTest, NonAbcExceptionsCrossThePoolSafely) {
  // std::runtime_error and std::bad_alloc from worker bodies must rethrow
  // on the submitting thread like any abc exception (not terminate).
  for (const fail::Action action :
       {fail::Action::kThrowRuntimeError, fail::Action::kThrowBadAlloc}) {
    fail::Policy policy;
    policy.action = action;
    policy.max_fires = 1;
    fail::arm(fail::points::kBackendWorkerJob, policy);
    EXPECT_THROW((void)full_round_trip(4), std::exception);
    fail::disarm_all();
  }
  EXPECT_TRUE(full_round_trip(4).ok);
}

TEST_F(FaultMatrixTest, DelaysStallButNeverCorrupt) {
  // A stalled worker (the delay action) slows the trip; the result must
  // still verify — scheduling cannot change the bytes.
  fail::Policy stall;
  stall.action = fail::Action::kDelay;
  stall.delay_us = 200;
  stall.trigger = fail::Trigger::kProbability;
  stall.probability = 0.05;
  stall.seed = 11;
  fail::arm(fail::points::kBackendWorkerJob, stall);
  fail::arm(fail::points::kKeySwitchScratch, stall);
  const engine::BatchVerifyReport report = full_round_trip(4);
  EXPECT_TRUE(report.ok) << "worst error " << report.worst_abs_error;
}

TEST_F(FaultMatrixTest, AmbientEnvFaultsNeverWedgeTheTrip) {
  // The CI fault leg reruns exactly this test with ABC_FAILPOINTS sweeps
  // installed at process start. Whatever ambient policies are armed —
  // throws, bad_allocs, delays, on any catalog point — repeated round
  // trips must terminate (success or a catchable std::exception, never a
  // hang, crash or std::terminate), and a disarmed rerun is green.
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      (void)full_round_trip(4);
    } catch (const std::exception&) {
      // Injected faults surface as ordinary exceptions; that is the
      // contract under test.
    }
  }
  fail::disarm_all();
  EXPECT_TRUE(full_round_trip(4).ok);
}

TEST_F(FaultMatrixTest, EnvSpecDrivesTheSameMachinery) {
  // install_spec is the ABC_FAILPOINTS entry point the CI fault leg uses;
  // a spec-armed point must behave exactly like a programmatic arm.
  fail::install_spec("engine.encrypt_item=throw@hit:1,limit:1");
  EXPECT_THROW((void)full_round_trip(2), InvalidArgument);
  fail::disarm_all();
  EXPECT_TRUE(full_round_trip(2).ok);
}

// ---- per-item-fault mode ----------------------------------------------------

/// A batch with deterministically malformed messages at fixed indices:
/// oversized slot vectors make encode throw InvalidArgument for exactly
/// those items, independent of scheduling — the fault vector for
/// bit-identity tests (failpoint triggers are schedule-dependent under a
/// pool; malformed inputs are not).
std::vector<std::vector<std::complex<double>>> batch_with_bad_items(
    std::size_t batch, std::size_t slots, std::span<const std::size_t> bad,
    u64 seed) {
  auto msgs = random_batch(batch, slots, seed);
  for (std::size_t i : bad) msgs[i].resize(slots + 1, {1.0, 0.0});
  return msgs;
}

TEST_F(FaultMatrixTest, EncryptReportModeIsolatesBadItems) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  engine::ClientSession session(ctx);
  const std::size_t bad[] = {1, 4};
  const auto msgs = batch_with_bad_items(6, ctx->slots(), bad, 7);

  engine::BatchErrorReport report;
  const std::vector<ckks::Ciphertext> cts =
      session.encrypt(msgs, ctx->max_limbs(), report);
  ASSERT_EQ(cts.size(), msgs.size());
  ASSERT_EQ(report.size(), msgs.size());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed, 2u);
  EXPECT_EQ(report.succeeded, 4u);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_FALSE(report.items[4].ok);
  EXPECT_EQ(report.first_error, report.items[1].error);
  EXPECT_FALSE(report.first_error.empty());
  // Failed slots are well-defined-empty; successes decrypt.
  EXPECT_TRUE(cts[1].components.empty());
  EXPECT_TRUE(cts[4].components.empty());
  std::vector<ckks::Ciphertext> good = {cts[0], cts[2], cts[3], cts[5]};
  std::vector<std::vector<std::complex<double>>> good_msgs = {
      msgs[0], msgs[2], msgs[3], msgs[5]};
  EXPECT_TRUE(session.verify(good, good_msgs).ok);
}

TEST_F(FaultMatrixTest, ReportModeIsBitIdenticalAcrossWorkerCounts) {
  // The acceptance criterion: with faults at fixed indices, the surviving
  // ciphertexts AND the report are byte-identical on the scalar backend
  // and on 1-, 2- and 8-thread pools.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const std::size_t bad[] = {0, 3};
  const auto run = [&](std::shared_ptr<backend::PolyBackend> be) {
    auto ctx = ckks::CkksContext::create(params, std::move(be));
    const auto msgs = batch_with_bad_items(5, ctx->slots(), bad, 21);
    engine::ClientSession session(ctx);
    engine::BatchErrorReport report;
    const auto cts = session.encrypt(msgs, ctx->max_limbs(), report);
    std::vector<std::vector<u8>> wires;
    for (std::size_t i = 0; i < cts.size(); ++i) {
      if (report.items[i].ok) {
        wires.push_back(ckks::serialize_ciphertext(cts[i], 44));
      }
    }
    return std::pair(std::move(wires), std::move(report));
  };
  const auto [ref_wires, ref_report] =
      run(std::make_shared<backend::ScalarBackend>());
  ASSERT_EQ(ref_report.failed, 2u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto [wires, report] =
        run(std::make_shared<backend::ThreadPoolBackend>(threads));
    EXPECT_EQ(ref_wires, wires) << threads << " threads";
    ASSERT_EQ(report.size(), ref_report.size());
    for (std::size_t i = 0; i < report.size(); ++i) {
      EXPECT_EQ(report.items[i].ok, ref_report.items[i].ok);
      EXPECT_EQ(report.items[i].error, ref_report.items[i].error);
    }
    EXPECT_EQ(report.first_error, ref_report.first_error);
  }
}

TEST_F(FaultMatrixTest, ReportModeMatchesThrowingModeBytesWhenClean) {
  // With no faults, the per-item mode must produce exactly the bytes of
  // the throwing mode — same stream-id reservation, same outputs.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const auto run = [&](bool report_mode) {
    auto ctx = ckks::CkksContext::create(
        params, std::make_shared<backend::ThreadPoolBackend>(4));
    engine::ClientSession session(ctx);
    const auto msgs = random_batch(4, ctx->slots(), 33);
    std::vector<ckks::Ciphertext> cts;
    if (report_mode) {
      engine::BatchErrorReport report;
      cts = session.encrypt(msgs, ctx->max_limbs(), report);
      EXPECT_TRUE(report.ok());
    } else {
      cts = session.encrypt(msgs, ctx->max_limbs());
    }
    return ckks::serialize_ciphertext_batch(cts, 44);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(FaultMatrixTest, DecryptRethrowsTheMalformedCiphertext) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(4, ctx->slots(), 9);
  auto cts = session.encrypt(msgs, ctx->max_limbs());
  cts[2].components.pop_back();  // structurally malformed item

  // Both decrypt paths surface the item's InvalidArgument on the caller.
  EXPECT_THROW((void)session.decrypt_engine().decrypt_batch(cts),
               InvalidArgument);
  EXPECT_THROW((void)session.decrypt_batch(cts), InvalidArgument);
  // The session is unharmed: the well-formed items still decrypt.
  cts.erase(cts.begin() + 2);
  const auto decoded = session.decrypt_batch(cts);
  ASSERT_EQ(decoded.size(), 3u);
  for (const auto& slots : decoded) EXPECT_EQ(slots.size(), ctx->slots());
}

TEST_F(FaultMatrixTest, VerifyReportModeSurvivesThrowingItems) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  engine::ClientSession session(ctx);
  auto msgs = random_batch(3, ctx->slots(), 13);
  const auto cts = session.encrypt(msgs, ctx->max_limbs());
  msgs[1].resize(ctx->slots() + 2);  // verify of item 1 throws

  engine::BatchErrorReport errors;
  const engine::BatchVerifyReport report =
      session.verify(cts, msgs, errors);
  EXPECT_EQ(errors.failed, 1u);
  EXPECT_FALSE(errors.items[1].ok);
  // The thrown item keeps the default (failing) VerifyReport; the fold
  // counts it as failed while its neighbours still pass.
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_EQ(report.passed, 2u);
  EXPECT_EQ(report.failed, 1u);
}

TEST_F(FaultMatrixTest, KeygenDigitFaultFailsTheWholeKey) {
  // A key is only usable whole, so a fault in any one gadget digit fails
  // the call with the injected type (here across a pool, so the exception
  // crosses a worker), and a disarmed retry returns every digit.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  ckks::KeyGenerator kg(ctx);
  const ckks::SecretKey sk = kg.secret_key();

  fail::Policy policy;
  policy.action = fail::Action::kThrowLogicError;
  policy.trigger = fail::Trigger::kNthHit;
  policy.nth = 2;
  fail::arm(fail::points::kKeygenDigit, policy);
  EXPECT_THROW((void)kg.relin_key(sk), LogicError);
  EXPECT_EQ(fail::fires(fail::points::kKeygenDigit), 1u);
  fail::arm(fail::points::kKeygenDigit, policy);
  const std::vector<int> steps = {1, 2};
  EXPECT_THROW((void)kg.galois_keys(sk, steps), LogicError);
  fail::disarm_all();

  const ckks::RelinKey rlk = kg.relin_key(sk);
  EXPECT_EQ(rlk.key.digits(), ctx->max_limbs());
  const ckks::GaloisKeys gks = kg.galois_keys(sk, steps);
  ASSERT_EQ(gks.keys.size(), steps.size());
  for (const ckks::KeySwitchKey& key : gks.keys) {
    EXPECT_EQ(key.digits(), ctx->max_limbs());
  }
}

TEST_F(FaultMatrixTest, ProbabilisticFaultsNeverWedgeTheReportMode) {
  // Robustness sweep (not bit-identity — the pool trigger is
  // schedule-dependent): a 30% per-item fault rate on the caller's thread,
  // plus faults thrown inside the pool workers running an item's limbs
  // (they cross the pool into that item's catch), must produce a coherent
  // report, empty failed slots and intact successes.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(8, ctx->slots(), 3);

  fail::Policy policy;
  policy.trigger = fail::Trigger::kProbability;
  policy.probability = 0.3;
  policy.seed = 5;
  fail::arm(fail::points::kEncryptItem, policy);
  fail::Policy worker = policy;
  worker.action = fail::Action::kThrowRuntimeError;
  worker.probability = 0.02;
  worker.seed = 9;
  fail::arm(fail::points::kBackendWorkerJob, worker);
  engine::BatchErrorReport report;
  const auto cts =
      session.encrypt(msgs, ctx->max_limbs(), report);
  fail::disarm_all();

  EXPECT_EQ(report.succeeded + report.failed, msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(cts[i].components.empty(), !report.items[i].ok) << i;
  }
  // Whatever survived must decrypt cleanly.
  std::vector<ckks::Ciphertext> good;
  std::vector<std::vector<std::complex<double>>> good_msgs;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (report.items[i].ok) {
      good.push_back(cts[i]);
      good_msgs.push_back(msgs[i]);
    }
  }
  if (!good.empty()) {
    EXPECT_TRUE(session.verify(good, good_msgs).ok);
  }
}

}  // namespace
}  // namespace abc
