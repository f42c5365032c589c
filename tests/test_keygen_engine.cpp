#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/serialize.hpp"
#include "prng/samplers.hpp"

namespace abc {
namespace {

void expect_identical_poly(const poly::RnsPoly& a, const poly::RnsPoly& b,
                           const std::string& what) {
  ASSERT_EQ(a.limbs(), b.limbs()) << what;
  for (std::size_t l = 0; l < a.limbs(); ++l) {
    const std::span<const u64> la = a.limb(l);
    const std::span<const u64> lb = b.limb(l);
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j], lb[j]) << what << " limb " << l << " coeff " << j;
    }
  }
}

void expect_identical_ksk(const ckks::KeySwitchKey& x,
                          const ckks::KeySwitchKey& y) {
  ASSERT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.galois_elt, y.galois_elt);
  EXPECT_EQ(x.base_stream_id, y.base_stream_id);
  ASSERT_EQ(x.digits(), y.digits());
  for (std::size_t d = 0; d < x.digits(); ++d) {
    expect_identical_poly(x.b[d], y.b[d], "b digit " + std::to_string(d));
    expect_identical_poly(x.a[d], y.a[d], "a digit " + std::to_string(d));
  }
}

/// Checks the key-switching identity digit by digit: b_d + a_d*s must
/// equal e_d + g_d*s', i.e. after removing the gadget term (s' on limb d
/// only) the phase INTTs back to a small Gaussian error on every limb.
void expect_ksk_phase_identity(const ckks::CkksContext& ctx,
                               const ckks::KeySwitchKey& key,
                               const poly::RnsPoly& s_eval,
                               const poly::RnsPoly& s_prime_eval) {
  const int tail = prng::DiscreteGaussianSampler(ctx.params().error_sigma).tail();
  for (std::size_t d = 0; d < key.digits(); ++d) {
    poly::RnsPoly phase = key.b[d];
    phase.fma_inplace(key.a[d], s_eval);
    // Subtract g_d * s': the CRT idempotent only lives on limb d.
    const rns::Modulus& q = ctx.poly_context()->modulus(d);
    const std::span<u64> pd = phase.limb(d);
    const std::span<const u64> sp = s_prime_eval.limb(d);
    for (std::size_t j = 0; j < pd.size(); ++j) pd[j] = q.sub(pd[j], sp[j]);
    phase.to_coeff();
    for (std::size_t l = 0; l < phase.limbs(); ++l) {
      const rns::Modulus& ql = ctx.poly_context()->modulus(l);
      for (u64 v : phase.limb(l)) {
        ASSERT_LE(std::abs(ql.to_centered(v)), tail)
            << "digit " << d << " limb " << l;
      }
    }
  }
}

TEST(GaloisElement, GroupStructure) {
  const std::size_t n = 1024;
  // Base 3: the canonical-embedding generator the encoder orders slots by
  // (zeta^{3^i}); rotations compose with decode only on this orbit.
  EXPECT_EQ(ckks::galois_element(1, n), 3u);
  EXPECT_EQ(ckks::galois_element(2, n), 9u);
  // A left rotation composed with the matching right rotation is the
  // identity automorphism: 3^r * 3^(slots-r) = 3^slots = 1 (mod 2N).
  const u64 fwd = ckks::galois_element(3, n);
  const u64 bwd = ckks::galois_element(-3, n);
  EXPECT_EQ(fwd * bwd % (2 * n), 1u);
  EXPECT_THROW(ckks::galois_element(0, n), InvalidArgument);
  EXPECT_THROW(ckks::galois_element(static_cast<int>(n / 2), n),
               InvalidArgument);
}

TEST(Automorphism, InverseElementRoundTrips) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  poly::RnsPoly p = ctx->make_poly(3, poly::Domain::kEval);
  ckks::fill_uniform_eval(*ctx, p, ckks::PrngDomain::kPublicA, 777);
  p.to_coeff();

  const u32 g = ckks::galois_element(5, ctx->n());
  const u32 g_inv = ckks::galois_element(-5, ctx->n());
  const poly::RnsPoly back = p.automorphism(g).automorphism(g_inv);
  expect_identical_poly(p, back, "automorphism round trip");

  // sigma_1 is the identity.
  expect_identical_poly(p, p.automorphism(1), "identity automorphism");
}

TEST(KeyGenerator, RelinKeyPhaseIdentity) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::RelinKey rlk = keygen.relin_key(sk);
  ASSERT_EQ(rlk.key.digits(), ctx->max_limbs());
  EXPECT_EQ(rlk.key.kind, ckks::KeySwitchKey::Kind::kRelin);

  poly::RnsPoly s2 = sk.s;
  s2.mul_inplace(sk.s);
  expect_ksk_phase_identity(*ctx, rlk.key, sk.s, s2);
}

TEST(KeyGenerator, GaloisKeyPhaseIdentity) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  for (int step : {1, -2, 7}) {
    const ckks::KeySwitchKey gk = keygen.galois_key(sk, step);
    EXPECT_EQ(gk.kind, ckks::KeySwitchKey::Kind::kGalois);
    EXPECT_EQ(gk.galois_elt, ckks::galois_element(step, ctx->n()));

    poly::RnsPoly s_coeff = sk.s;
    s_coeff.to_coeff();
    poly::RnsPoly s_rot = s_coeff.automorphism(gk.galois_elt);
    s_rot.to_eval();
    expect_ksk_phase_identity(*ctx, gk, sk.s, s_rot);
  }
}

TEST(KeyGenerator, RelinAndGaloisStreamsAreDomainSeparated) {
  // Relin and Galois keys draw their uniform halves from different PRNG
  // domains, so even with identical stream ids (fresh generators both
  // start at 0) the a-halves must differ.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator kg_a(ctx), kg_b(ctx);
  const ckks::SecretKey sk = kg_a.secret_key();
  const ckks::RelinKey rlk = kg_a.relin_key(sk);
  const ckks::KeySwitchKey gk = kg_b.galois_key(sk, 1);
  ASSERT_EQ(rlk.key.base_stream_id, gk.base_stream_id);
  bool differs = false;
  const std::span<const u64> ra = rlk.key.a[0].limb(0);
  const std::span<const u64> ga = gk.a[0].limb(0);
  for (std::size_t j = 0; j < ra.size() && !differs; ++j) {
    differs = ra[j] != ga[j];
  }
  EXPECT_TRUE(differs);
}

/// Generates the full key set on a fresh context over @p backend.
struct KeySet {
  ckks::RelinKey rlk;
  ckks::GaloisKeys gks;
};

KeySet run_keygen(const ckks::CkksParams& params,
                  std::shared_ptr<backend::PolyBackend> backend,
                  std::span<const int> steps) {
  auto ctx = ckks::CkksContext::create(params, std::move(backend));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::RelinKey rlk = keygen.relin_key(sk);
  return KeySet{rlk, keygen.galois_keys(sk, steps)};
}

TEST(KeyGenerator, KeysAreThreadCountInvariant) {
  // The digits fan out across the backend, as encryption's limbs do: the
  // ScalarBackend and 1/2/8-thread pools produce byte-identical keys.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  const std::vector<int> steps = {1, -1, 4};
  const KeySet ref =
      run_keygen(params, std::make_shared<backend::ScalarBackend>(), steps);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const KeySet got = run_keygen(
        params, std::make_shared<backend::ThreadPoolBackend>(threads), steps);
    expect_identical_ksk(ref.rlk.key, got.rlk.key);
    ASSERT_EQ(ref.gks.keys.size(), got.gks.keys.size());
    for (std::size_t i = 0; i < ref.gks.keys.size(); ++i) {
      expect_identical_ksk(ref.gks.keys[i], got.gks.keys[i]);
    }
  }
  // key_for finds by step and rejects unknown steps.
  EXPECT_EQ(&ref.gks.key_for(4), &ref.gks.keys[2]);
  EXPECT_THROW(ref.gks.key_for(9), InvalidArgument);
}

TEST(KeySerialization, CompressedRelinRoundTripsBitExactly) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::RelinKey rlk = keygen.relin_key(sk);

  const std::vector<u8> bytes = serialize_key_switch_key(ctx, rlk.key, 44, true);
  const ckks::KeySwitchKey restored =
      deserialize_key_switch_key(ctx, bytes);
  expect_identical_ksk(rlk.key, restored);

  // The report's analytic sizes match the emitted byte streams exactly.
  const ckks::KeySizeReport report = key_switch_key_sizes(rlk.key, 44);
  EXPECT_EQ(report.compressed_bytes, bytes.size());
  const std::vector<u8> full = serialize_key_switch_key(ctx, rlk.key, 44, false);
  EXPECT_EQ(report.full_bytes, full.size());
  EXPECT_GT(report.ratio(), 1.9);
  expect_identical_ksk(rlk.key, deserialize_key_switch_key(ctx, full));
}

TEST(KeySerialization, CompressedGaloisRoundTripsBitExactly) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::KeySwitchKey gk = keygen.galois_key(sk, 3);

  const std::vector<u8> bytes = serialize_key_switch_key(ctx, gk, 44);
  const ckks::KeySwitchKey restored = deserialize_key_switch_key(ctx, bytes);
  expect_identical_ksk(gk, restored);
  EXPECT_EQ(restored.galois_elt, ckks::galois_element(3, ctx->n()));

  const ckks::KeySizeReport report = key_switch_key_sizes(gk, 44);
  EXPECT_EQ(report.compressed_bytes, bytes.size());
  EXPECT_EQ(report.full_bytes,
            serialize_key_switch_key(ctx, gk, 44, false).size());
  EXPECT_GT(report.ratio(), 1.9);
}

TEST(KeySerialization, CompressedPublicKeyRoundTripsBitExactly) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::PublicKey pk = keygen.public_key(sk);

  const std::vector<u8> bytes = serialize_public_key(ctx, pk, 44, true);
  EXPECT_EQ(public_key_sizes(pk, 44).compressed_bytes, bytes.size());
  const ckks::PublicKey restored = deserialize_public_key(ctx, bytes);
  EXPECT_EQ(restored.stream_id, pk.stream_id);
  expect_identical_poly(pk.b, restored.b, "public b");
  expect_identical_poly(pk.a, restored.a, "public a");

  const std::vector<u8> full = serialize_public_key(ctx, pk, 44, false);
  EXPECT_EQ(public_key_sizes(pk, 44).full_bytes, full.size());
  EXPECT_GT(public_key_sizes(pk, 44).ratio(), 1.9);
  expect_identical_poly(pk.a, deserialize_public_key(ctx, full).a,
                        "full public a");
}

TEST(KeySerialization, CorruptKeyBuffersRejected) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  std::vector<u8> bytes =
      serialize_key_switch_key(ctx, keygen.relin_key(sk).key, 44);

  std::vector<u8> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(deserialize_key_switch_key(ctx, bad_magic), InvalidArgument);

  std::vector<u8> truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize_key_switch_key(ctx, truncated), InvalidArgument);

  // Compressed keys regenerate their uniform halves from the header's
  // stream metadata, so a flipped bit there must fail the header
  // checksum instead of silently restoring different key material.
  // Stream id occupies header bytes 14..21 (after magic/kind/etc.).
  std::vector<u8> bad_stream = bytes;
  bad_stream[15] ^= 0x04;
  EXPECT_THROW(deserialize_key_switch_key(ctx, bad_stream), InvalidArgument);
  // Galois element field (bytes 10..13) is covered too.
  std::vector<u8> bad_elt = bytes;
  bad_elt[11] ^= 0x10;
  EXPECT_THROW(deserialize_key_switch_key(ctx, bad_elt), InvalidArgument);

  // A key-switching-key buffer is not a public key and vice versa.
  EXPECT_THROW(deserialize_public_key(ctx, bytes), InvalidArgument);
  const std::vector<u8> pk_bytes =
      serialize_public_key(ctx, keygen.public_key(sk), 44);
  EXPECT_THROW(deserialize_key_switch_key(ctx, pk_bytes), InvalidArgument);
}

TEST(KeyGenerator, GaloisKeysForDifferentStepsNeverShareStreams) {
  // Two independent generators both hand out base_stream_id 0. If Galois
  // keys for different rotations shared a keystream, b1_d - b2_d would be
  // error-free (the e_d cancel) and leak a linear relation in the secret.
  // The stream domain is salted with the Galois element to rule that out.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator kg_a(ctx), kg_b(ctx);
  const ckks::SecretKey sk = kg_a.secret_key();
  const ckks::KeySwitchKey k1 = kg_a.galois_key(sk, 1);
  const ckks::KeySwitchKey k2 = kg_b.galois_key(sk, 2);
  ASSERT_EQ(k1.base_stream_id, k2.base_stream_id);
  bool a_differs = false;
  const std::span<const u64> a1 = k1.a[0].limb(0);
  const std::span<const u64> a2 = k2.a[0].limb(0);
  for (std::size_t j = 0; j < a1.size(); ++j) {
    a_differs = a_differs || a1[j] != a2[j];
  }
  EXPECT_TRUE(a_differs) << "uniform halves drawn from a shared stream";
}

TEST(KeyGenerator, KeysForDifferentSecretsNeverShareStreams) {
  // The other aliasing axis: same kind (and element), different secrets.
  // Two fresh generators' counters both start at 0, but the secret's id
  // is folded into the base stream id — identical (a_d, e_d) under
  // different secrets would make b1_d - b2_d error-free and leak both
  // secrets.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk1 = keygen.secret_key();
  const ckks::SecretKey sk2 = keygen.secret_key();
  ASSERT_NE(sk1.stream_id, sk2.stream_id);
  ckks::KeyGenerator kg1(ctx), kg2(ctx);
  const ckks::RelinKey r1 = kg1.relin_key(sk1);
  const ckks::RelinKey r2 = kg2.relin_key(sk2);
  EXPECT_NE(r1.key.base_stream_id, r2.key.base_stream_id);
  bool a_differs = false;
  const std::span<const u64> a1 = r1.key.a[0].limb(0);
  const std::span<const u64> a2 = r2.key.a[0].limb(0);
  for (std::size_t j = 0; j < a1.size(); ++j) {
    a_differs = a_differs || a1[j] != a2[j];
  }
  EXPECT_TRUE(a_differs) << "uniform halves drawn from a shared stream";

  // Public keys for different secrets are salted the same way.
  const ckks::PublicKey pk1 = keygen.public_key(sk1);
  const ckks::PublicKey pk2 = keygen.public_key(sk2);
  EXPECT_NE(pk1.stream_id, pk2.stream_id);
}

TEST(Encryptor, CiphertextsForDifferentSecretsNeverShareStreams) {
  // The encryption path carries the same salt: two encryptors for
  // different secrets both count from 0, but their first ciphertexts must
  // not share mask/error/a streams (shared randomness under different
  // secrets lets c0 differences cancel the errors).
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk1 = keygen.secret_key();
  const ckks::SecretKey sk2 = keygen.secret_key();
  ckks::Encryptor e1(ctx, sk1), e2(ctx, sk2);
  ckks::CkksEncoder encoder(ctx);
  const std::vector<std::complex<double>> msg(8, {0.5, -0.25});
  const ckks::Plaintext pt = encoder.encode(msg, 2);
  const ckks::Ciphertext ct1 = e1.encrypt(pt);
  const ckks::Ciphertext ct2 = e2.encrypt(pt);
  ASSERT_TRUE(ct1.compressed_c1 && ct2.compressed_c1);
  EXPECT_NE(ct1.compressed_c1->stream_id, ct2.compressed_c1->stream_id);
  // The regenerable a-halves (c1) must come from different streams.
  bool differs = false;
  const std::span<const u64> a1 = ct1.c(1).limb(0);
  const std::span<const u64> a2 = ct2.c(1).limb(0);
  for (std::size_t j = 0; j < a1.size(); ++j) {
    differs = differs || a1[j] != a2[j];
  }
  EXPECT_TRUE(differs) << "symmetric a drawn from a shared stream";
}

TEST(KeySerialization, NonRegenerableKeysRejectedWhenCompressed) {
  // Compressed forms drop the uniform halves; the writer must prove they
  // are regenerable or the key would silently restore to different
  // material. Tampering with the stream id or the a-half must throw.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();

  ckks::PublicKey pk = keygen.public_key(sk);
  pk.stream_id += 1;  // no longer matches the a-half
  EXPECT_THROW(serialize_public_key(ctx, pk, 44, true), InvalidArgument);
  EXPECT_NO_THROW(serialize_public_key(ctx, pk, 44, false));

  ckks::RelinKey rlk = keygen.relin_key(sk);
  rlk.key.a[1].limb(0)[0] ^= 1;  // corrupt one coefficient
  EXPECT_THROW(serialize_key_switch_key(ctx, rlk.key, 44, true),
               InvalidArgument);
  EXPECT_NO_THROW(serialize_key_switch_key(ctx, rlk.key, 44, false));
}

}  // namespace
}  // namespace abc
