// Noise-estimator validation: the analytic bounds must (a) actually bound
// the measured noise and (b) stay within a sane factor of it, across
// parameter sets and both encryption modes.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/noise.hpp"

namespace abc::ckks {
namespace {

// gtest names each case by the bytes of its parameter, so the struct has
// no padding: a padding byte would put stack garbage into the test name.
struct NoiseCase {
  std::int64_t log_n;
  std::size_t limbs;
  EncryptMode mode;
  std::int32_t zero_tail = 0;
};
static_assert(sizeof(NoiseCase) == 24);
static_assert(std::has_unique_object_representations_v<NoiseCase>);

class NoiseBoundTest : public ::testing::TestWithParam<NoiseCase> {};

TEST_P(NoiseBoundTest, BoundHoldsAndIsNotVacuous) {
  const NoiseCase c = GetParam();
  const CkksParams params = CkksParams::test_small(static_cast<int>(c.log_n), c.limbs);
  auto ctx = CkksContext::create(params);
  CkksEncoder encoder(ctx);
  KeyGenerator keygen(ctx);
  const SecretKey sk = keygen.secret_key();
  std::unique_ptr<Encryptor> enc;
  if (c.mode == EncryptMode::kPublicKey) {
    enc = std::make_unique<Encryptor>(ctx, keygen.public_key(sk));
  } else {
    enc = std::make_unique<Encryptor>(ctx, sk);
  }
  Decryptor dec(ctx, sk);

  std::mt19937_64 rng(c.log_n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> msg(encoder.slots());
  for (auto& z : msg) z = {dist(rng), dist(rng)};

  const double bound =
      slot_error_bound(fresh_noise_bound(params, c.mode), params.scale());
  double worst = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const Ciphertext ct = enc->encrypt(encoder.encode(msg, c.limbs));
    worst = std::max(worst, measured_slot_noise(ct, dec, encoder, msg));
  }
  EXPECT_LT(worst, bound) << "bound violated";
  // High-probability bounds overshoot typical noise, but not absurdly.
  EXPECT_GT(worst, bound / 5000.0) << "bound is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoiseBoundTest,
    ::testing::Values(NoiseCase{10, 2, EncryptMode::kPublicKey},
                      NoiseCase{10, 2, EncryptMode::kSymmetricSeeded},
                      NoiseCase{11, 4, EncryptMode::kPublicKey},
                      NoiseCase{12, 3, EncryptMode::kSymmetricSeeded}));

TEST(Noise, SymmetricIsQuieterThanPublicKey) {
  const CkksParams params = CkksParams::test_small(12, 3);
  EXPECT_LT(fresh_noise_bound(params, EncryptMode::kSymmetricSeeded),
            fresh_noise_bound(params, EncryptMode::kPublicKey));
  EXPECT_GT(
      fresh_precision_bound_bits(params, EncryptMode::kSymmetricSeeded),
      fresh_precision_bound_bits(params, EncryptMode::kPublicKey));
}

TEST(Noise, BoundScalesWithDegreeAndSigma) {
  CkksParams small = CkksParams::test_small(10, 2);
  CkksParams large = CkksParams::test_small(14, 2);
  EXPECT_LT(fresh_noise_bound(small, EncryptMode::kPublicKey),
            fresh_noise_bound(large, EncryptMode::kPublicKey));
  CkksParams noisy = small;
  noisy.error_sigma = 6.4;
  EXPECT_LT(fresh_noise_bound(small, EncryptMode::kPublicKey),
            fresh_noise_bound(noisy, EncryptMode::kPublicKey));
}

TEST(Noise, KeySwitchBoundHoldsForRotatedCiphertexts) {
  // Post-keyswitch coverage: a rotate-there-and-back pair adds two
  // key-switch noise terms on top of the fresh noise; the combined
  // analytic bound must hold and stay non-vacuous.
  const CkksParams params = CkksParams::test_small(10, 3);
  auto ctx = CkksContext::create(params);
  CkksEncoder encoder(ctx);
  KeyGenerator keygen(ctx);
  const SecretKey sk = keygen.secret_key();
  Encryptor enc(ctx, keygen.public_key(sk));
  Decryptor dec(ctx, sk);
  Evaluator eval(ctx);
  const std::vector<int> steps = {5, -5};
  const GaloisKeys gks = keygen.galois_keys(sk, steps);

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> msg(encoder.slots());
  for (auto& z : msg) z = {dist(rng), dist(rng)};

  const Ciphertext ct = enc.encrypt(encoder.encode(msg, 2));
  const Ciphertext back = eval.rotate(eval.rotate(ct, 5, gks), -5, gks);
  const double measured = measured_slot_noise(back, dec, encoder, msg);
  const double bound = slot_error_bound(
      fresh_noise_bound(params, EncryptMode::kPublicKey) +
          2.0 * keyswitch_noise_bound(params, 2),
      params.scale());
  EXPECT_LT(measured, bound) << "bound violated";
  EXPECT_GT(measured, bound / 5000.0) << "bound is vacuous";

  // The bound grows with the digit count (more accumulation terms).
  EXPECT_LT(keyswitch_noise_bound(params, 1),
            keyswitch_noise_bound(params, 2));
}

TEST(Noise, AdditionAddsNoiseLinearly) {
  const CkksParams params = CkksParams::test_small(10, 3);
  auto ctx = CkksContext::create(params);
  CkksEncoder encoder(ctx);
  KeyGenerator keygen(ctx);
  const SecretKey sk = keygen.secret_key();
  Encryptor enc(ctx, keygen.public_key(sk));
  Decryptor dec(ctx, sk);

  std::vector<std::complex<double>> msg(encoder.slots(), {0.25, -0.5});
  Ciphertext acc = enc.encrypt(encoder.encode(msg, 3));
  std::vector<std::complex<double>> expect = msg;
  // Sum 8 fresh encryptions; noise should stay near 8x fresh, far below
  // 8x the high-probability bound.
  for (int i = 0; i < 7; ++i) {
    const Ciphertext ct = enc.encrypt(encoder.encode(msg, 3));
    for (std::size_t j = 0; j < acc.size(); ++j) {
      acc.c(j).add_inplace(ct.c(j));
    }
    for (std::size_t s = 0; s < expect.size(); ++s) expect[s] += msg[s];
  }
  const double measured = measured_slot_noise(acc, dec, encoder, expect);
  const double single_bound =
      slot_error_bound(fresh_noise_bound(params, EncryptMode::kPublicKey),
                       params.scale());
  EXPECT_LT(measured, 8.0 * single_bound);
}

}  // namespace
}  // namespace abc::ckks
