#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "backend/thread_pool_backend.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "transform/op_counter.hpp"

namespace abc::ckks {
namespace {

std::vector<std::complex<double>> random_slots(std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> v(count);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

struct Fixture {
  std::shared_ptr<const CkksContext> ctx;
  CkksEncoder encoder;
  KeyGenerator keygen;
  SecretKey sk;
  PublicKey pk;

  explicit Fixture(int log_n = 10, std::size_t limbs = 3)
      : ctx(CkksContext::create(CkksParams::test_small(log_n, limbs))),
        encoder(ctx),
        keygen(ctx),
        sk(keygen.secret_key()),
        pk(keygen.public_key(sk)) {}
};

TEST(CkksEncrypt, PublicKeyRoundtrip) {
  Fixture f;
  Encryptor enc(f.ctx, PublicKey{f.pk.b, f.pk.a, f.pk.stream_id});
  Decryptor dec(f.ctx, f.sk);
  const auto slots = random_slots(f.encoder.slots(), 1);
  const Plaintext pt = f.encoder.encode(slots, f.ctx->max_limbs());
  const Ciphertext ct = enc.encrypt(pt);
  EXPECT_EQ(ct.size(), 2u);
  EXPECT_FALSE(ct.compressed_c1.has_value());
  const Plaintext decrypted = dec.decrypt(ct);
  const auto decoded = f.encoder.decode(decrypted);
  const PrecisionReport r = compare_slots(slots, decoded);
  EXPECT_GT(r.precision_bits, 12.0);  // noise e adds ~sigma*sqrt terms
}

TEST(CkksEncrypt, SymmetricSeededRoundtrip) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  Decryptor dec(f.ctx, f.sk);
  const auto slots = random_slots(f.encoder.slots(), 2);
  const Plaintext pt = f.encoder.encode(slots, f.ctx->max_limbs());
  const Ciphertext ct = enc.encrypt(pt);
  ASSERT_TRUE(ct.compressed_c1.has_value());
  const Plaintext decrypted = dec.decrypt(ct);
  const auto decoded = f.encoder.decode(decrypted);
  const PrecisionReport r = compare_slots(slots, decoded);
  EXPECT_GT(r.precision_bits, 12.0);
}

TEST(CkksEncrypt, CiphertextLooksUniform) {
  // c1 of a public-key encryption is computationally indistinguishable
  // from uniform; sanity-check the first moment per limb.
  Fixture f;
  Encryptor enc(f.ctx, PublicKey{f.pk.b, f.pk.a, f.pk.stream_id});
  const Plaintext pt =
      f.encoder.encode(random_slots(f.encoder.slots(), 3), 3);
  const Ciphertext ct = enc.encrypt(pt);
  for (std::size_t i = 0; i < ct.limbs(); ++i) {
    const u64 q = f.ctx->poly_context()->modulus(i).value();
    double mean = 0;
    for (u64 v : ct.c(1).limb(i)) mean += static_cast<double>(v) / static_cast<double>(q);
    mean /= static_cast<double>(f.ctx->n());
    EXPECT_NEAR(mean, 0.5, 0.05);
  }
}

TEST(CkksEncrypt, WrongKeyFailsToDecrypt) {
  Fixture f;
  Encryptor enc(f.ctx, PublicKey{f.pk.b, f.pk.a, f.pk.stream_id});
  KeyGenerator other_gen(f.ctx);
  (void)other_gen.secret_key();           // advance stream
  SecretKey wrong = other_gen.secret_key();
  Decryptor dec(f.ctx, wrong);
  const auto slots = random_slots(f.encoder.slots(), 4);
  const Plaintext pt = f.encoder.encode(slots, 2);
  const Plaintext decrypted = dec.decrypt(enc.encrypt(pt));
  const auto decoded = f.encoder.decode(decrypted);
  const PrecisionReport r = compare_slots(slots, decoded);
  EXPECT_GT(r.max_abs_error, 1.0);  // garbage, not the message
}

TEST(CkksEncrypt, EncryptionsAreDistinct) {
  Fixture f;
  Encryptor enc(f.ctx, PublicKey{f.pk.b, f.pk.a, f.pk.stream_id});
  const Plaintext pt = f.encoder.encode(random_slots(8, 5), 2);
  const Ciphertext a = enc.encrypt(pt);
  const Ciphertext b = enc.encrypt(pt);
  // Fresh mask/error per encryption: ciphertexts differ.
  bool differs = false;
  for (std::size_t j = 0; j < f.ctx->n() && !differs; ++j) {
    differs = a.c(0).limb(0)[j] != b.c(0).limb(0)[j];
  }
  EXPECT_TRUE(differs);
}

TEST(CkksEncrypt, LowerLevelEncryption) {
  // Encrypting at 2 limbs (the paper's server-return level).
  Fixture f(10, 4);
  Encryptor enc(f.ctx, f.sk);
  Decryptor dec(f.ctx, f.sk);
  const auto slots = random_slots(f.encoder.slots(), 6);
  const Plaintext pt = f.encoder.encode(slots, 2);
  const Ciphertext ct = enc.encrypt(pt);
  EXPECT_EQ(ct.limbs(), 2u);
  const auto decoded = f.encoder.decode(dec.decrypt(ct));
  EXPECT_GT(compare_slots(slots, decoded).precision_bits, 12.0);
}

TEST(CkksEncrypt, NttPassAccountingMatchesModes) {
  // The declared NTT-passes-per-limb drive the accelerator scheduler; the
  // software must execute exactly that many forward NTTs per limb.
  Fixture f;
  const std::size_t limbs = 3;
  const std::size_t n = f.ctx->n();
  const u64 fwd_ntt_muls = (n / 2) * static_cast<u64>(f.ctx->params().log_n);

  const Plaintext pt = f.encoder.encode(random_slots(8, 7), limbs);

  {
    Encryptor enc(f.ctx, PublicKey{f.pk.b, f.pk.a, f.pk.stream_id});
    xf::OpCounterScope scope;
    (void)enc.encrypt(pt);
    const u64 got = scope.delta().ntt_mul;
    EXPECT_EQ(got, fwd_ntt_muls * limbs *
                       static_cast<u64>(ntt_passes_per_limb(
                           EncryptMode::kPublicKey)));
  }
  {
    Encryptor enc(f.ctx, f.sk);
    xf::OpCounterScope scope;
    (void)enc.encrypt(pt);
    const u64 got = scope.delta().ntt_mul;
    EXPECT_EQ(got, fwd_ntt_muls * limbs *
                       static_cast<u64>(ntt_passes_per_limb(
                           EncryptMode::kSymmetricSeeded)));
  }
}

bool same_words(const poly::RnsPoly& a, const poly::RnsPoly& b) {
  if (a.limbs() != b.limbs() || a.domain() != b.domain()) return false;
  for (std::size_t i = 0; i < a.limbs(); ++i) {
    const auto x = a.limb(i);
    const auto y = b.limb(i);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

void expect_same_counts(const xf::OpCounts& got, const xf::OpCounts& want) {
  EXPECT_EQ(got.ntt_mul, want.ntt_mul);
  EXPECT_EQ(got.ntt_add, want.ntt_add);
  EXPECT_EQ(got.poly_mul, want.poly_mul);
  EXPECT_EQ(got.poly_add, want.poly_add);
  EXPECT_EQ(got.other, want.other);
}

/// Symmetric encryption rebuilt from whole-polynomial RnsPoly calls:
/// a = uniform, c0 = NTT(e + m) - a*s.
Ciphertext symmetric_chain(const CkksContext& ctx, const SecretKey& sk,
                           const Plaintext& pt, u64 id) {
  const u64 wire = (sk.stream_id << 32) | id;
  const std::size_t limbs = pt.limbs();
  poly::RnsPoly a = ctx.make_poly(limbs, poly::Domain::kEval);
  fill_uniform_eval(ctx, a, PrngDomain::kSymmetricA, wire);
  poly::RnsPoly me = ctx.make_poly(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(ctx, me, PrngDomain::kSymmetricError, wire);
  me.add_inplace(pt.poly);
  me.to_eval();
  poly::RnsPoly c0 = ctx.make_poly(limbs, poly::Domain::kEval);
  c0.set_fms(me, a, sk.s);
  Ciphertext ct;
  ct.components.push_back(std::move(c0));
  ct.components.push_back(std::move(a));
  ct.compressed_c1 = CompressedComponent{wire};
  return ct;
}

/// Public-key encryption rebuilt the same way on prefix copies of the key:
/// c0 = b*u + NTT(m + e0), c1 = a*u + NTT(e1).
Ciphertext public_chain(const CkksContext& ctx, const PublicKey& pk,
                        const Plaintext& pt, u64 id) {
  const u64 salt = pk.stream_id >> 32;
  const auto salted = [salt](u64 v) { return (salt << 32) | v; };
  const std::size_t limbs = pt.limbs();
  poly::RnsPoly u = ctx.make_poly(limbs, poly::Domain::kCoeff);
  fill_ternary_coeff(ctx, u, PrngDomain::kEncryptMask, salted(id));
  u.to_eval();
  poly::RnsPoly me0 = ctx.make_poly(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(ctx, me0, PrngDomain::kEncryptError, salted(2 * id));
  me0.add_inplace(pt.poly);
  me0.to_eval();
  poly::RnsPoly c0 = pk.b.prefix_copy(limbs);
  c0.mul_inplace(u);
  c0.add_inplace(me0);
  poly::RnsPoly e1 = ctx.make_poly(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(ctx, e1, PrngDomain::kEncryptError,
                      salted(2 * id + 1));
  e1.to_eval();
  poly::RnsPoly c1 = pk.a.prefix_copy(limbs);
  c1.mul_inplace(u);
  c1.add_inplace(e1);
  Ciphertext ct;
  ct.components.push_back(std::move(c0));
  ct.components.push_back(std::move(c1));
  return ct;
}

TEST(CkksEncrypt, StreamedEncryptMatchesUnfusedChain) {
  // The limb-streamed encryptor must reproduce the whole-polynomial chain
  // word for word, with the same op counts, in both modes, at full and
  // lower levels, for any backend worker count.
  for (const CkksParams& params :
       {CkksParams::test_small(10, 3), CkksParams::sweep_point(13, 6)}) {
    for (const std::size_t workers : {0, 1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "log_n " << params.log_n
                                      << " workers " << workers);
      std::shared_ptr<backend::PolyBackend> be;
      if (workers != 0) {
        be = std::make_shared<backend::ThreadPoolBackend>(workers);
      }
      const auto ctx = CkksContext::create(params, be);
      CkksEncoder encoder(ctx);
      KeyGenerator keygen(ctx);
      const SecretKey sk = keygen.secret_key();
      const PublicKey pk = keygen.public_key(sk);
      Encryptor sym(ctx, sk);
      Encryptor pub(ctx, pk);
      for (const std::size_t limbs : {ctx->max_limbs(), std::size_t{2}}) {
        SCOPED_TRACE(testing::Message() << "limbs " << limbs);
        const Plaintext pt =
            encoder.encode(random_slots(encoder.slots(), limbs), limbs);
        const u64 id = sym.reserve_stream_ids(1);

        xf::OpCounterScope streamed_sym;
        const Ciphertext got_sym = sym.encrypt(pt, id);
        const xf::OpCounts streamed_sym_ops = streamed_sym.delta();
        xf::OpCounterScope chain_sym;
        const Ciphertext want_sym = symmetric_chain(*ctx, sk, pt, id);
        expect_same_counts(streamed_sym_ops, chain_sym.delta());
        EXPECT_TRUE(same_words(got_sym.c(0), want_sym.c(0)));
        EXPECT_TRUE(same_words(got_sym.c(1), want_sym.c(1)));
        ASSERT_TRUE(got_sym.compressed_c1.has_value());
        EXPECT_EQ(got_sym.compressed_c1->stream_id,
                  want_sym.compressed_c1->stream_id);

        xf::OpCounterScope streamed_pub;
        const Ciphertext got_pub = pub.encrypt(pt, id);
        const xf::OpCounts streamed_pub_ops = streamed_pub.delta();
        xf::OpCounterScope chain_pub;
        const Ciphertext want_pub = public_chain(*ctx, pk, pt, id);
        expect_same_counts(streamed_pub_ops, chain_pub.delta());
        EXPECT_TRUE(same_words(got_pub.c(0), want_pub.c(0)));
        EXPECT_TRUE(same_words(got_pub.c(1), want_pub.c(1)));
        EXPECT_FALSE(got_pub.compressed_c1.has_value());
      }
    }
  }
}

TEST(CkksEncrypt, DifferentSeedsGiveDifferentKeys) {
  CkksParams p1 = CkksParams::test_small();
  CkksParams p2 = CkksParams::test_small();
  p2.seed[0] ^= 0xff;
  auto c1 = CkksContext::create(p1);
  auto c2 = CkksContext::create(p2);
  KeyGenerator g1(c1), g2(c2);
  const SecretKey s1 = g1.secret_key();
  const SecretKey s2 = g2.secret_key();
  bool differs = false;
  for (std::size_t j = 0; j < c1->n() && !differs; ++j) {
    differs = s1.s.limb(0)[j] != s2.s.limb(0)[j];
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace abc::ckks
