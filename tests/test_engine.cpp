// Batch encryption on the engine layer: ClientSession::encrypt (one
// in-order loop over encode + Encryptor::encrypt) and
// Encryptor::encrypt_plaintexts, both under one reserved stream-id block.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/serialize.hpp"
#include "engine/client_session.hpp"

namespace abc {
namespace {

using engine::ClientSession;
using engine::SessionConfig;

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

void expect_identical_ciphertexts(const ckks::Ciphertext& a,
                                  const ckks::Ciphertext& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.limbs(), b.limbs());
  EXPECT_EQ(a.compressed_c1.has_value(), b.compressed_c1.has_value());
  if (a.compressed_c1 && b.compressed_c1) {
    EXPECT_EQ(a.compressed_c1->stream_id, b.compressed_c1->stream_id);
  }
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t i = 0; i < a.limbs(); ++i) {
      std::span<const u64> la = a.c(c).limb(i);
      std::span<const u64> lb = b.c(c).limb(i);
      for (std::size_t j = 0; j < la.size(); ++j) {
        ASSERT_EQ(la[j], lb[j])
            << "component " << c << " limb " << i << " coeff " << j;
      }
    }
  }
}

/// Encrypts the same batch through a fresh session over @p backend.
std::vector<ckks::Ciphertext> run_batch(
    const ckks::CkksParams& params,
    std::shared_ptr<backend::PolyBackend> backend,
    const std::vector<std::vector<std::complex<double>>>& msgs,
    ckks::EncryptMode mode) {
  auto ctx = ckks::CkksContext::create(params, std::move(backend));
  ClientSession session(ctx, SessionConfig{.mode = mode});
  return session.encrypt(msgs, ctx->max_limbs());
}

TEST(Engine, CiphertextsAreThreadCountInvariant) {
  // The batch determinism claim: same seed + same batch produce
  // byte-identical ciphertexts at 1, 2 and 8 worker threads (and under the
  // scalar backend), in both encryption modes.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const auto msgs = random_batch(6, 16, 42);
  for (const auto mode : {ckks::EncryptMode::kPublicKey,
                          ckks::EncryptMode::kSymmetricSeeded}) {
    const auto ref = run_batch(
        params, std::make_shared<backend::ScalarBackend>(), msgs, mode);
    for (std::size_t threads : {1u, 2u, 8u}) {
      const auto got = run_batch(
          params, std::make_shared<backend::ThreadPoolBackend>(threads),
          msgs, mode);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_identical_ciphertexts(ref[i], got[i]);
      }
    }
  }
}

class EngineRoundtrip
    : public ::testing::TestWithParam<std::pair<int, std::size_t>> {};

TEST_P(EngineRoundtrip, BatchEncryptDecryptRecoversMessages) {
  const auto [log_n, limbs] = GetParam();
  const ckks::CkksParams params = ckks::CkksParams::test_small(log_n, limbs);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  ClientSession session(
      ctx, SessionConfig{.mode = ckks::EncryptMode::kPublicKey});
  ckks::Decryptor dec(session.secret_key());
  ckks::CkksEncoder encoder(ctx);

  const auto msgs = random_batch(5, ctx->slots(), 7 + log_n);
  const auto cts = session.encrypt(msgs, ctx->max_limbs());
  ASSERT_EQ(cts.size(), msgs.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    const auto decoded = encoder.decode(dec.decrypt(cts[i]));
    const ckks::PrecisionReport r = ckks::compare_slots(msgs[i], decoded);
    EXPECT_GT(r.precision_bits, 12.0) << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ParamSets, EngineRoundtrip,
                         ::testing::Values(std::make_pair(10, 3u),
                                           std::make_pair(11, 4u)));

TEST(Engine, SymmetricBatchRoundtripAndCompression) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  ClientSession session(ctx);
  ckks::Decryptor dec(session.secret_key());
  ckks::CkksEncoder encoder(ctx);

  const auto msgs = random_batch(4, ctx->slots(), 99);
  const auto cts = session.encrypt(msgs, ctx->max_limbs());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    ASSERT_TRUE(cts[i].compressed_c1.has_value());
    const auto decoded = encoder.decode(dec.decrypt(cts[i]));
    EXPECT_GT(ckks::compare_slots(msgs[i], decoded).precision_bits, 12.0);
  }
  // Stream ids within a batch are consecutive and unique.
  for (std::size_t i = 1; i < cts.size(); ++i) {
    EXPECT_EQ(cts[i].compressed_c1->stream_id,
              cts[0].compressed_c1->stream_id + i);
  }
}

TEST(Engine, BatchItemsUseDistinctRandomness) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(4));
  ClientSession session(
      ctx, SessionConfig{.mode = ckks::EncryptMode::kPublicKey});

  // Same message in every batch slot: ciphertexts must still differ.
  std::vector<std::vector<std::complex<double>>> msgs(
      3, random_batch(1, 16, 5)[0]);
  const auto cts = session.encrypt(msgs, 2);
  for (std::size_t a = 0; a < cts.size(); ++a) {
    for (std::size_t b = a + 1; b < cts.size(); ++b) {
      bool differs = false;
      std::span<const u64> la = cts[a].c(0).limb(0);
      std::span<const u64> lb = cts[b].c(0).limb(0);
      for (std::size_t j = 0; j < la.size() && !differs; ++j) {
        differs = la[j] != lb[j];
      }
      EXPECT_TRUE(differs) << "items " << a << " and " << b;
    }
  }
}

TEST(Engine, MixedSingleAndBatchSharesCounter) {
  // A one-off Encryptor::encrypt() and the session's batch encrypt() draw
  // from one atomic counter: ids never collide, and everything stays
  // decryptable.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  ClientSession session(ctx);
  ckks::Decryptor dec(session.secret_key());
  ckks::CkksEncoder encoder(ctx);

  const auto msgs = random_batch(3, 16, 11);
  const auto first = session.encrypt(msgs, 2);
  // A one-off encrypt() between batches consumes exactly one id from the
  // shared atomic counter...
  const ckks::Plaintext single_pt = encoder.encode(msgs[0], 2);
  const ckks::Ciphertext single = session.encrypt_engine().encrypt(single_pt);
  const auto second = session.encrypt(msgs, 2);
  // ...so the id sequence is first: base..base+2, single: base+3,
  // second: base+4.. — never a reuse.
  ASSERT_TRUE(single.compressed_c1.has_value());
  EXPECT_EQ(single.compressed_c1->stream_id,
            first[2].compressed_c1->stream_id + 1);
  EXPECT_EQ(second[0].compressed_c1->stream_id,
            single.compressed_c1->stream_id + 1);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_NE(first[i].compressed_c1->stream_id,
              second[i].compressed_c1->stream_id);
    const auto decoded = encoder.decode(dec.decrypt(second[i]));
    const std::span<const std::complex<double>> head(decoded.data(),
                                                     msgs[i].size());
    EXPECT_GT(ckks::compare_slots(msgs[i], head).precision_bits, 12.0);
  }
  const auto single_decoded = encoder.decode(dec.decrypt(single));
  const std::span<const std::complex<double>> single_head(
      single_decoded.data(), msgs[0].size());
  EXPECT_GT(ckks::compare_slots(msgs[0], single_head).precision_bits, 12.0);
}

TEST(Engine, EncryptPlaintextsPath) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Decryptor dec(sk);
  ckks::CkksEncoder encoder(ctx);

  const auto msgs = random_batch(3, ctx->slots(), 21);
  std::vector<ckks::Plaintext> pts;
  pts.reserve(msgs.size());
  for (const auto& m : msgs) pts.push_back(encoder.encode(m, 3));

  ckks::Encryptor enc(ctx, keygen.public_key(sk));
  const auto cts = enc.encrypt_plaintexts(pts);
  ASSERT_EQ(cts.size(), pts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    const auto decoded = encoder.decode(dec.decrypt(cts[i]));
    EXPECT_GT(ckks::compare_slots(msgs[i], decoded).precision_bits, 12.0);
  }
}

TEST(Engine, OversizedMessageThrowsNotAborts) {
  // Input validation inside a batch on a pooled context must come back as
  // a catchable exception, exactly as it does under the scalar backend.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  ClientSession session(ctx);
  auto msgs = random_batch(2, 16, 31);
  msgs[1].resize(ctx->slots() + 1);  // too many values for the slot count
  EXPECT_THROW(session.encrypt(msgs, ctx->max_limbs()), InvalidArgument);
}

TEST(Engine, EnginesSharingAContextNeverAliasStreamIds) {
  // The regression the shared counter exists for: encryptors used to keep
  // per-instance counters, so two of them on one context would both hand
  // out id 0 and replay each other's keystreams (for the same secret and
  // domain, that leaks plaintext differences). All ids now come from
  // CkksContext::reserve_stream_ids, so every encryptor on a context
  // draws from one sequence.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(
      params, std::make_shared<backend::ThreadPoolBackend>(2));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::CkksEncoder encoder(ctx);
  std::vector<ckks::Plaintext> pts;
  for (const auto& m : random_batch(3, 16, 77)) {
    pts.push_back(encoder.encode(m, 2));
  }

  // Two encryptors for the SAME secret (same salt): interleaved batches
  // must still never share a wire stream id.
  ckks::Encryptor enc1(ctx, sk);
  ckks::Encryptor enc2(ctx, sk);
  std::vector<u64> ids;
  for (const auto& ct : enc1.encrypt_plaintexts(pts)) {
    ids.push_back(ct.compressed_c1->stream_id);
  }
  for (const auto& ct : enc2.encrypt_plaintexts(pts)) {
    ids.push_back(ct.compressed_c1->stream_id);
  }
  for (const auto& ct : enc1.encrypt_plaintexts(pts)) {
    ids.push_back(ct.compressed_c1->stream_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate stream id across encryptors sharing a context";

  // Switching keys are the documented exception: their counters stay
  // per-KeyGenerator, so two generators for one secret on one context
  // reuse a (secret, kind, element, counter) tuple — and that regenerates
  // the identical key, never a second key on the same keystream.
  ckks::KeyGenerator kg1(ctx);
  ckks::KeyGenerator kg2(ctx);
  const ckks::RelinKey r1 = kg1.relin_key(sk);
  const ckks::RelinKey r2 = kg2.relin_key(sk);
  EXPECT_EQ(r1.key.base_stream_id, r2.key.base_stream_id);
  // The writer proves both keys' a halves regenerate from that one id.
  EXPECT_EQ(ckks::serialize_key_switch_key(ctx, r1.key, 44),
            ckks::serialize_key_switch_key(ctx, r2.key, 44))
      << "one (secret, counter) tuple produced two different keys";
}

TEST(Engine, EmptyBatchIsFine) {
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto ctx = ckks::CkksContext::create(params);
  ClientSession session(ctx);
  EXPECT_TRUE(
      session
          .encrypt(std::span<const std::vector<std::complex<double>>>{},
                   ctx->max_limbs())
          .empty());
  EXPECT_TRUE(session.encrypt_engine().encrypt_plaintexts({}).empty());
}

}  // namespace
}  // namespace abc
