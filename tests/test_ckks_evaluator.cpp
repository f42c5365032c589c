#include <gtest/gtest.h>

#include <random>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"

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
  Encryptor enc;
  Decryptor dec;
  Evaluator eval;

  explicit Fixture(int log_n = 10, std::size_t limbs = 4)
      : ctx(CkksContext::create(CkksParams::test_small(log_n, limbs))),
        encoder(ctx),
        keygen(ctx),
        sk(keygen.secret_key()),
        enc(ctx, keygen.public_key(sk)),
        dec(sk),
        eval(ctx) {}

  std::vector<std::complex<double>> roundtrip(const Ciphertext& ct) {
    Plaintext pt = dec.decrypt(ct);
    return encoder.decode(pt);
  }
};

TEST(CkksEvaluator, HomomorphicAddition) {
  Fixture f;
  const auto za = random_slots(f.encoder.slots(), 1);
  const auto zb = random_slots(f.encoder.slots(), 2);
  const Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 4));
  const Ciphertext cb = f.enc.encrypt(f.encoder.encode(zb, 4));
  const auto got = f.roundtrip(f.eval.add(ca, cb));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), za[i].real() + zb[i].real(), 1e-4);
    EXPECT_NEAR(got[i].imag(), za[i].imag() + zb[i].imag(), 1e-4);
  }
}

TEST(CkksEvaluator, HomomorphicSubtraction) {
  Fixture f;
  const auto za = random_slots(f.encoder.slots(), 3);
  const auto zb = random_slots(f.encoder.slots(), 4);
  const Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 4));
  const Ciphertext cb = f.enc.encrypt(f.encoder.encode(zb, 4));
  const auto got = f.roundtrip(f.eval.sub(ca, cb));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), za[i].real() - zb[i].real(), 1e-4);
  }
}

TEST(CkksEvaluator, AddPlain) {
  Fixture f;
  const auto za = random_slots(f.encoder.slots(), 5);
  const auto zb = random_slots(f.encoder.slots(), 6);
  const Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 4));
  const Plaintext pb = f.encoder.encode(zb, 4);
  const auto got = f.roundtrip(f.eval.add_plain(ca, pb));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), za[i].real() + zb[i].real(), 1e-4);
  }
}

TEST(CkksEvaluator, MulPlainWithRescale) {
  Fixture f;
  const auto za = random_slots(f.encoder.slots(), 7);
  const auto zb = random_slots(f.encoder.slots(), 8);
  const Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 4));
  const Plaintext pb = f.encoder.encode(zb, 4);
  Ciphertext prod = f.eval.mul_plain(ca, pb);
  EXPECT_NEAR(prod.scale, ca.scale * pb.scale, 1.0);
  f.eval.rescale_inplace(prod);
  EXPECT_EQ(prod.limbs(), 3u);
  const auto got = f.roundtrip(prod);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto expect = za[i] * zb[i];
    EXPECT_NEAR(got[i].real(), expect.real(), 5e-3) << i;
    EXPECT_NEAR(got[i].imag(), expect.imag(), 5e-3) << i;
  }
}

TEST(CkksEvaluator, CiphertextMultiplicationThreeComponents) {
  Fixture f;
  const auto za = random_slots(f.encoder.slots(), 9);
  const auto zb = random_slots(f.encoder.slots(), 10);
  const Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 4));
  const Ciphertext cb = f.enc.encrypt(f.encoder.encode(zb, 4));
  Ciphertext prod = f.eval.mul(ca, cb);
  EXPECT_EQ(prod.size(), 3u);
  f.eval.rescale_inplace(prod);
  const auto got = f.roundtrip(prod);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto expect = za[i] * zb[i];
    EXPECT_NEAR(got[i].real(), expect.real(), 5e-3) << i;
    EXPECT_NEAR(got[i].imag(), expect.imag(), 5e-3) << i;
  }
}

TEST(CkksEvaluator, RescaleDividesScale) {
  Fixture f;
  const Ciphertext ct = f.enc.encrypt(
      f.encoder.encode(random_slots(f.encoder.slots(), 11), 4));
  Ciphertext r = ct;
  const double q_last = static_cast<double>(
      f.ctx->poly_context()->modulus(3).value());
  f.eval.rescale_inplace(r);
  EXPECT_DOUBLE_EQ(r.scale, ct.scale / q_last);
  EXPECT_EQ(r.limbs(), ct.limbs() - 1);
}

TEST(CkksEvaluator, ModSwitchPreservesMessage) {
  Fixture f;
  const auto slots = random_slots(f.encoder.slots(), 12);
  Ciphertext ct = f.enc.encrypt(f.encoder.encode(slots, 4));
  f.eval.mod_switch_to_inplace(ct, 2);
  EXPECT_EQ(ct.limbs(), 2u);
  const auto got = f.roundtrip(ct);
  EXPECT_GT(compare_slots(slots, got).precision_bits, 10.0);
}

TEST(CkksEvaluator, MismatchedLevelsRejected) {
  Fixture f;
  const Ciphertext a =
      f.enc.encrypt(f.encoder.encode(random_slots(4, 13), 4));
  const Ciphertext b =
      f.enc.encrypt(f.encoder.encode(random_slots(4, 14), 3));
  EXPECT_THROW(f.eval.add(a, b), InvalidArgument);
  EXPECT_THROW(f.eval.mul(a, b), InvalidArgument);
}

TEST(CkksEvaluator, DepthTwoComputation) {
  // (a*b + c) * d across two rescales: exercises scale management.
  Fixture f(10, 5);
  const std::size_t m = f.encoder.slots();
  const auto za = random_slots(m, 15);
  const auto zb = random_slots(m, 16);
  const auto zd = random_slots(m, 17);

  Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 5));
  const Plaintext pb = f.encoder.encode(zb, 5);
  Ciphertext t = f.eval.mul_plain(ca, pb);
  f.eval.rescale_inplace(t);  // level 4, scale ~ Delta^2 / q4

  // Multiply by d at the matching level; encode d at t's limb count and
  // scale-match by encoding at default scale (tolerated mismatch ~q/Delta).
  const Plaintext pd = f.encoder.encode(zd, t.limbs());
  Ciphertext t2 = f.eval.mul_plain(t, pd);
  f.eval.rescale_inplace(t2);

  const auto got = f.roundtrip(t2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto expect = za[i] * zb[i] * zd[i];
    EXPECT_NEAR(got[i].real(), expect.real(), 5e-2) << i;
    EXPECT_NEAR(got[i].imag(), expect.imag(), 5e-2) << i;
  }
}

}  // namespace
}  // namespace abc::ckks
