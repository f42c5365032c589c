// Batch decryption (Decryptor::decrypt_batch and ClientSession's
// decrypt/verify loops) and the full-session pipeline facade.

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <string>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "engine/client_session.hpp"
#include "simd/simd_caps.hpp"

namespace abc {
namespace {

using engine::ClientSession;

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

void expect_identical_plaintexts(const ckks::Plaintext& a,
                                 const ckks::Plaintext& b) {
  ASSERT_EQ(a.limbs(), b.limbs());
  EXPECT_EQ(a.scale, b.scale);
  for (std::size_t l = 0; l < a.limbs(); ++l) {
    const std::span<const u64> la = a.poly.limb(l);
    const std::span<const u64> lb = b.poly.limb(l);
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j], lb[j]) << "limb " << l << " coeff " << j;
    }
  }
}

struct RoundTrip {
  std::shared_ptr<const ckks::CkksContext> ctx;
  std::unique_ptr<ClientSession> session;
  std::vector<std::vector<std::complex<double>>> msgs;
  std::vector<ckks::Ciphertext> cts;
};

/// Encrypts the same batch through a fresh session on a fresh context over
/// @p backend; the ciphertexts are backend-invariant
/// (tests/test_engine.cpp), so the decryption inputs are bit-identical
/// across calls.
RoundTrip make_round_trip(const ckks::CkksParams& params,
                          std::shared_ptr<backend::PolyBackend> backend,
                          std::size_t batch) {
  auto ctx = ckks::CkksContext::create(params, std::move(backend));
  auto session = std::make_unique<ClientSession>(ctx);
  auto msgs = random_batch(batch, ctx->slots(), 1234);
  auto cts = session->encrypt(msgs, ctx->max_limbs());
  return RoundTrip{std::move(ctx), std::move(session), std::move(msgs),
                   std::move(cts)};
}

TEST(DecryptorBatch, MatchesSerialDecryptorBitForBit) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(4), 5);
  ckks::Decryptor serial(rt.ctx, rt.session->secret_key());
  const auto pts = rt.session->decrypt_engine().decrypt_batch(rt.cts);
  ASSERT_EQ(pts.size(), rt.cts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical_plaintexts(serial.decrypt(rt.cts[i]), pts[i]);
  }
}

TEST(DecryptorBatch, PlaintextsAreThreadCountInvariant) {
  // The determinism contract on the download side: ScalarBackend, 1-, 2-
  // and 8-thread pools produce byte-identical plaintexts.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip ref_rt = make_round_trip(
      params, std::make_shared<backend::ScalarBackend>(), 6);
  const auto ref = ref_rt.session->decrypt_engine().decrypt_batch(ref_rt.cts);
  for (std::size_t threads : {1u, 2u, 8u}) {
    RoundTrip rt = make_round_trip(
        params, std::make_shared<backend::ThreadPoolBackend>(threads), 6);
    const auto got = rt.session->decrypt_engine().decrypt_batch(rt.cts);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_identical_plaintexts(ref[i], got[i]);
    }
  }
}

TEST(DecryptorBatch, RoundTripIsKernelArchInvariant) {
  // Forced-arch matrix over the whole client round trip (keygen,
  // encrypt batch — the fused fms_into path — and decrypt batch — the
  // fused fma_into path): plaintexts must be byte-identical whether the
  // portable, AVX2 or AVX-512/IFMA kernels executed.
  struct ArchGuard {
    ~ArchGuard() {
      simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
    }
  } guard;
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const auto run = [&](simd::KernelArch arch) {
    simd::set_kernel_arch_for_testing(arch);
    RoundTrip rt = make_round_trip(
        params, std::make_shared<backend::ScalarBackend>(), 4);
    return rt.session->decrypt_engine().decrypt_batch(rt.cts);
  };
  std::vector<simd::KernelArch> arches = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) arches.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable())
    arches.push_back(simd::KernelArch::kAvx512Ifma);
  const auto ref = run(arches[0]);
  for (std::size_t i = 1; i < arches.size(); ++i) {
    const auto got = run(arches[i]);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t p = 0; p < ref.size(); ++p) {
      expect_identical_plaintexts(ref[p], got[p]);
    }
  }
}

TEST(DecryptorBatch, DecodeBatchRecoversMessages) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(11, 4);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(4), 4);
  const auto decoded = rt.session->decrypt_batch(rt.cts);
  ASSERT_EQ(decoded.size(), rt.msgs.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const ckks::PrecisionReport r =
        ckks::compare_slots(rt.msgs[i], decoded[i]);
    EXPECT_GT(r.precision_bits, 12.0) << "message " << i;
  }
}

TEST(DecryptorBatch, EmptyBatchIsFine) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  ClientSession session(ctx);
  EXPECT_TRUE(session.decrypt_engine().decrypt_batch({}).empty());
  EXPECT_TRUE(session.decrypt_batch({}).empty());
  const engine::BatchVerifyReport report = session.verify({}, {});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.passed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(report.items.empty());
}

TEST(DecryptorBatch, WrongLevelComponentThrowsNotAborts) {
  // A ciphertext whose components disagree on the level is malformed; a
  // batch on a pooled context must surface that as a catchable exception,
  // exactly as a scalar one would.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(2), 2);
  rt.cts[1].components[1].drop_last_limb();  // c1 now one level below c0
  EXPECT_THROW(rt.session->decrypt_engine().decrypt_batch(rt.cts),
               InvalidArgument);
  EXPECT_THROW(rt.session->decrypt_batch(rt.cts), InvalidArgument);
}

TEST(DecryptorBatch, BadComponentCountThrowsNotAborts) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(2), 2);
  rt.cts[0].components.pop_back();  // 1-component "ciphertext"
  EXPECT_THROW(rt.session->decrypt_engine().decrypt_batch(rt.cts),
               InvalidArgument);
  EXPECT_THROW(rt.session->decrypt_batch(rt.cts), InvalidArgument);
}

TEST(DecryptorBatch, ThrowingModeRethrowsTheLowestIndexFailure) {
  // Items 1 and 3 are malformed in different ways. On any backend, both
  // batch decrypt paths raise item 1's exception: the message of
  // decrypting item 1 alone.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const std::vector<std::shared_ptr<backend::PolyBackend>> backends = {
      std::make_shared<backend::ScalarBackend>(),
      std::make_shared<backend::ThreadPoolBackend>(1),
      std::make_shared<backend::ThreadPoolBackend>(2),
      std::make_shared<backend::ThreadPoolBackend>(4)};
  for (const auto& backend : backends) {
    SCOPED_TRACE(std::string(backend->name()) + " x" +
                 std::to_string(backend->workers()));
    RoundTrip rt = make_round_trip(params, backend, 6);
    ClientSession& session = *rt.session;
    rt.cts[1].components.pop_back();            // 1-component "ciphertext"
    rt.cts[3].components[1].drop_last_limb();   // components disagree

    const auto message_of = [](const auto& decrypt) {
      try {
        (void)decrypt();
      } catch (const InvalidArgument& e) {
        return std::string(e.what());
      }
      ADD_FAILURE() << "a batch with failing items did not throw";
      return std::string();
    };
    const auto plain = [&](std::span<const ckks::Ciphertext> cts) {
      return message_of(
          [&] { return session.decrypt_engine().decrypt_batch(cts); });
    };
    const std::string item1 = plain({&rt.cts[1], 1});
    ASSERT_FALSE(item1.empty());
    EXPECT_NE(item1, plain({&rt.cts[3], 1}));

    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(plain(rt.cts), item1);
      EXPECT_EQ(message_of([&] { return session.decrypt_batch(rt.cts); }),
                item1);
    }
  }
}

TEST(DecryptorBatch, VerifyBatchFlagsCorruptedComponent) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(4), 4);
  ClientSession& session = *rt.session;
  const engine::BatchVerifyReport clean = session.verify(rt.cts, rt.msgs);
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(clean.passed, rt.cts.size());
  EXPECT_EQ(clean.failed, 0u);

  // Corrupt one residue of one item's c0: that item decrypts to garbage
  // and must fail its bound; the others still pass.
  const u64 q = rt.ctx->poly_context()->modulus(0).value();
  std::span<u64> limb = rt.cts[2].c(0).limb(0);
  limb[7] = (limb[7] + q / 2) % q;
  const engine::BatchVerifyReport report = session.verify(rt.cts, rt.msgs);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.passed, rt.cts.size() - 1);
  EXPECT_FALSE(report.items[2].ok);
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_GT(report.worst_abs_error, report.items[2].bound);
  // The fold mirrors the worst item.
  EXPECT_EQ(report.worst_abs_error, report.items[2].max_abs_error);
}

TEST(DecryptorBatch, VerifyBatchRequiresMatchingExpectedCount) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  RoundTrip rt = make_round_trip(
      params, std::make_shared<backend::ThreadPoolBackend>(2), 3);
  const auto short_expected =
      std::span(rt.msgs.data(), rt.msgs.size() - 1);
  EXPECT_THROW(rt.session->verify(rt.cts, short_expected), InvalidArgument);
}

TEST(ClientSession, FullRoundTripPassesVerifyBounds) {
  // The acceptance-criteria loop: keygen -> seed-compressed key bundle ->
  // encrypt batch -> wire envelope -> decrypt/verify batch, one facade.
  const ckks::CkksParams params = ckks::CkksParams::test_small(11, 4);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  engine::SessionConfig cfg;
  cfg.rotations = {1, 4};
  engine::ClientSession session(ctx, cfg);

  // The key bundle is seed-compressed and restores server-side.
  const engine::KeyBundle& keys = session.key_bundle();
  EXPECT_GT(keys.total_bytes(), 0u);
  const ckks::PublicKey pk =
      ckks::deserialize_public_key(ctx, keys.public_key);
  EXPECT_EQ(pk.b.limbs(), ctx->max_limbs());
  const ckks::KeySwitchKey rlk =
      ckks::deserialize_key_switch_key(ctx, keys.relin_key);
  EXPECT_EQ(rlk.kind, ckks::KeySwitchKey::Kind::kRelin);
  ASSERT_EQ(keys.galois_keys.size(), cfg.rotations.size());
  const ckks::KeySwitchKey gk =
      ckks::deserialize_key_switch_key(ctx, keys.galois_keys[0]);
  EXPECT_EQ(gk.galois_elt, ckks::galois_element(1, ctx->n()));
  // Bundles are cached: a second call serializes nothing new.
  EXPECT_EQ(&keys, &session.key_bundle());

  // Round trip through the wire envelope; the echoed upload must verify
  // against the original messages within the fresh+keyswitch bound.
  const auto msgs = random_batch(6, ctx->slots(), 99);
  const std::vector<u8> envelope = session.upload(msgs, ctx->max_limbs());
  const engine::BatchVerifyReport report =
      session.verify_download(envelope, msgs);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.passed, msgs.size());
  EXPECT_GT(report.worst_precision_bits, 12.0);

  // decrypt_batch recovers the slots too (the non-verifying path).
  const auto cts = session.encrypt(msgs, ctx->max_limbs());
  const auto decoded = session.decrypt_batch(cts);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_GT(ckks::compare_slots(msgs[i], decoded[i]).precision_bits, 12.0);
  }
}

TEST(ClientSession, SessionsSharingAContextHoldDistinctSecrets) {
  // Secret ids are context-wide (CkksContext::reserve_secret_ids): two
  // sessions on one warm context must never silently regenerate the same
  // secret for what the caller intends to be different users.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession a(ctx);
  engine::ClientSession b(ctx);
  ASSERT_NE(a.secret_key().stream_id, b.secret_key().stream_id);
  bool differs = false;
  const std::span<const u64> sa = a.secret_key().s.limb(0);
  const std::span<const u64> sb = b.secret_key().s.limb(0);
  for (std::size_t j = 0; j < sa.size() && !differs; ++j) {
    differs = sa[j] != sb[j];
  }
  EXPECT_TRUE(differs) << "two sessions share one secret key";
}

TEST(ClientSession, OversizedExpectedSlotsThrowNotRead) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(2, ctx->slots(), 5);
  const auto cts = session.encrypt(msgs, ctx->max_limbs());
  auto too_long = msgs;
  too_long[1].resize(ctx->slots() + 3);  // more than a ciphertext decodes
  EXPECT_THROW(session.verify(cts, too_long), InvalidArgument);
}

TEST(ClientSession, PublicKeyModeRoundTrips) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  engine::SessionConfig cfg;
  cfg.mode = ckks::EncryptMode::kPublicKey;
  engine::ClientSession session(ctx, cfg);
  EXPECT_EQ(session.encrypt_engine().mode(), ckks::EncryptMode::kPublicKey);

  const auto msgs = random_batch(3, ctx->slots(), 7);
  const engine::BatchVerifyReport report =
      session.verify(session.encrypt(msgs, ctx->max_limbs()), msgs);
  EXPECT_TRUE(report.ok) << "worst error " << report.worst_abs_error;
}

TEST(ClientSession, VerifyDownloadOfEmptyBatchIsVacuouslyOk) {
  // An empty response envelope against an empty expectation is a valid,
  // passing report — not a crash and not a failure.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession session(ctx);
  const std::vector<u8> envelope =
      ckks::serialize_ciphertext_batch({}, session.config().bits_per_coeff);
  const engine::BatchVerifyReport report = session.verify_download(envelope, {});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.passed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(report.items.empty());
  EXPECT_EQ(report.worst_abs_error, 0.0);
}

TEST(ClientSession, VerifyDownloadReportsEveryItemFailing) {
  // All-items-failing is a coherent report, not an exception: corrupt one
  // residue of every ciphertext before re-serializing the envelope.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(3, ctx->slots(), 23);
  auto cts = session.encrypt(msgs, ctx->max_limbs());
  const u64 q = ctx->poly_context()->modulus(0).value();
  for (auto& ct : cts) {
    std::span<u64> limb = ct.c(0).limb(0);
    limb[3] = (limb[3] + q / 2) % q;
  }
  const std::vector<u8> envelope =
      ckks::serialize_ciphertext_batch(cts, session.config().bits_per_coeff);
  const engine::BatchVerifyReport report =
      session.verify_download(envelope, msgs);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.passed, 0u);
  EXPECT_EQ(report.failed, msgs.size());
  for (const ckks::VerifyReport& item : report.items) EXPECT_FALSE(item.ok);
}

TEST(ClientSession, RetryRecoversFromATransientTransportFault) {
  // Round 1's response envelope is corrupted in flight (parse fails, a
  // whole-round error); round 2 echoes cleanly. Every item is sent twice
  // and the session ends green.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(3, ctx->slots(), 31);
  int calls = 0;
  const auto flaky = [&](std::span<const u8> upload) {
    std::vector<u8> response(upload.begin(), upload.end());
    if (++calls == 1) response.resize(response.size() / 2);
    return response;
  };
  const engine::ClientSession::RetryReport report =
      session.round_trip_with_retry(msgs, ctx->max_limbs(), flaky);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.rounds, 2u);
  ASSERT_EQ(report.round_errors.size(), 1u);
  EXPECT_FALSE(report.round_errors[0].empty());
  for (std::size_t attempts : report.attempts) EXPECT_EQ(attempts, 2u);
  EXPECT_TRUE(report.verify.ok);
  EXPECT_EQ(report.verify.passed, msgs.size());
}

TEST(ClientSession, RetryResendsOnlyFailedItemsUnderFreshStreamIds) {
  // The server garbles item 1 on the first round only. Round 2 must carry
  // exactly that item, re-encrypted under a freshly reserved stream id —
  // stream ids are NEVER reused, even for an identical message.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(3, ctx->slots(), 37);
  const u64 q = ctx->poly_context()->modulus(0).value();
  int calls = 0;
  std::vector<std::vector<u64>> upload_stream_ids;  // per round, per item
  const auto server = [&](std::span<const u8> upload) {
    auto cts = ckks::deserialize_ciphertext_batch(ctx, upload);
    std::vector<u64> ids;
    for (const auto& ct : cts) {
      EXPECT_TRUE(ct.compressed_c1.has_value());
      ids.push_back(ct.compressed_c1 ? ct.compressed_c1->stream_id : 0);
    }
    upload_stream_ids.push_back(std::move(ids));
    if (++calls == 1) {
      std::span<u64> limb = cts[1].c(0).limb(0);
      limb[5] = (limb[5] + q / 2) % q;
    }
    return ckks::serialize_ciphertext_batch(cts,
                                            session.config().bits_per_coeff);
  };
  const engine::ClientSession::RetryReport report =
      session.round_trip_with_retry(msgs, ctx->max_limbs(), server);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_TRUE(report.round_errors.empty());
  EXPECT_EQ(report.attempts[0], 1u);
  EXPECT_EQ(report.attempts[1], 2u);
  EXPECT_EQ(report.attempts[2], 1u);
  ASSERT_EQ(upload_stream_ids.size(), 2u);
  ASSERT_EQ(upload_stream_ids[1].size(), 1u) << "only item 1 resent";
  // The retried item's stream id is fresh: distinct from every id of
  // round 1 (the context counter is monotonic, so it is in fact larger).
  for (u64 prior : upload_stream_ids[0]) {
    EXPECT_NE(upload_stream_ids[1][0], prior);
    EXPECT_GT(upload_stream_ids[1][0], prior);
  }
}

TEST(ClientSession, RetryGivesUpAfterMaxAttempts) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(2, ctx->slots(), 41);
  int calls = 0;
  const auto broken = [&](std::span<const u8>) {
    ++calls;
    return std::vector<u8>{0xde, 0xad};  // never parses
  };
  const engine::ClientSession::RetryReport report =
      session.round_trip_with_retry(msgs, ctx->max_limbs(), broken, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.rounds, 3u);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.round_errors.size(), 3u);
  for (std::size_t attempts : report.attempts) EXPECT_EQ(attempts, 3u);
  EXPECT_FALSE(report.verify.ok);
  EXPECT_EQ(report.verify.failed, msgs.size());
}

TEST(ClientSession, RetryRejectsDegenerateArguments) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  engine::ClientSession session(ctx);
  const auto msgs = random_batch(1, ctx->slots(), 43);
  const auto echo = [](std::span<const u8> u) {
    return std::vector<u8>(u.begin(), u.end());
  };
  EXPECT_THROW(
      session.round_trip_with_retry(msgs, ctx->max_limbs(), nullptr),
      InvalidArgument);
  EXPECT_THROW(
      session.round_trip_with_retry(msgs, ctx->max_limbs(), echo, 0),
      InvalidArgument);
  // Zero messages: a trivially green report, no transport calls needed.
  const engine::ClientSession::RetryReport report =
      session.round_trip_with_retry({}, ctx->max_limbs(), echo);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.rounds, 0u);
}

TEST(ClientSession, SessionsAreBackendInvariant) {
  // A whole session (keygen + encrypt + wire) is bit-identical between the
  // scalar backend and any pool: same key bundle bytes, same envelope.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const auto msgs = random_batch(3, 256, 17);
  auto run = [&](std::shared_ptr<backend::PolyBackend> backend) {
    auto ctx = ckks::CkksContext::create(params, std::move(backend));
    engine::SessionConfig cfg;
    cfg.rotations = {1};
    engine::ClientSession session(ctx, cfg);
    const engine::KeyBundle& keys = session.key_bundle();
    std::pair<std::vector<u8>, std::vector<u8>> out;
    out.first = keys.relin_key;
    out.second = session.upload(msgs, ctx->max_limbs());
    return out;
  };
  const auto ref = run(std::make_shared<backend::ScalarBackend>());
  for (std::size_t threads : {1u, 8u}) {
    const auto got =
        run(std::make_shared<backend::ThreadPoolBackend>(threads));
    EXPECT_EQ(ref.first, got.first) << threads << " threads (relin key)";
    EXPECT_EQ(ref.second, got.second) << threads << " threads (envelope)";
  }
}

}  // namespace
}  // namespace abc
