#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <random>
#include <vector>

#include "baseline/prior_work.hpp"
#include "engine/client_session.hpp"
#include "transform/op_counter.hpp"

namespace abc::baseline {
namespace {

using Message = std::vector<std::complex<double>>;

Message random_message(std::size_t slots, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Message msg(slots);
  for (auto& z : msg) z = {dist(rng), dist(rng)};
  return msg;
}

struct CpuMeasurement {
  double encode_encrypt_ms = 0;
  double decode_decrypt_ms = 0;
  xf::OpCounts encode_encrypt_ops;
  xf::OpCounts decode_decrypt_ops;
};

/// The CPU client workload of Figs. 1, 2 and 5a at test size: one
/// ClientSession encrypt() at @p fresh limbs and one decrypt_batch() of a
/// fresh @p returned-limb ciphertext, each timed and op-counted.
CpuMeasurement measure(const ckks::CkksParams& params, ckks::EncryptMode mode,
                       std::size_t fresh, std::size_t returned) {
  engine::ClientSession session(ckks::CkksContext::create(params),
                                {.mode = mode});
  const std::vector<Message> msgs{random_message(params.slots(), 99)};
  const std::vector<ckks::Ciphertext> back = session.encrypt(msgs, returned);
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  CpuMeasurement m;
  {
    const xf::OpCounterScope ops;
    const auto t0 = Clock::now();
    (void)session.encrypt(msgs, fresh);
    m.encode_encrypt_ms = ms_since(t0);
    m.encode_encrypt_ops = ops.delta();
  }
  {
    const xf::OpCounterScope ops;
    const auto t0 = Clock::now();
    (void)session.decrypt_batch(back);
    m.decode_decrypt_ms = ms_since(t0);
    m.decode_decrypt_ops = ops.delta();
  }
  return m;
}

TEST(CpuReference, PipelineRoundtripsAndTimes) {
  // Fig. 2's ~10x encrypt/decrypt op imbalance emerges from the limb-count
  // asymmetry (24 fresh vs 2 returned); at this reduced depth (12 vs 2)
  // the ratio is proportionally smaller but must clearly exceed 2x.
  ckks::CkksParams params = ckks::CkksParams::test_small(10, 12);
  const CpuMeasurement m = measure(params, ckks::EncryptMode::kSymmetricSeeded,
                                   /*fresh=*/12, /*returned=*/2);
  EXPECT_GT(m.encode_encrypt_ms, 0.0);
  EXPECT_GT(m.decode_decrypt_ms, 0.0);
  EXPECT_GT(m.encode_encrypt_ops.total(), 2 * m.decode_decrypt_ops.total());
}

TEST(CpuReference, OpCountsScaleWithLimbs) {
  ckks::CkksParams p4 = ckks::CkksParams::test_small(10, 4);
  ckks::CkksParams p2 = ckks::CkksParams::test_small(10, 2);
  const auto md = measure(p4, ckks::EncryptMode::kSymmetricSeeded, 4, 2);
  const auto ms = measure(p2, ckks::EncryptMode::kSymmetricSeeded, 2, 2);
  EXPECT_GT(md.encode_encrypt_ops.ntt_total(),
            1.5 * ms.encode_encrypt_ops.ntt_total());
}

TEST(CpuReference, FunctionalCorrectnessThroughPipeline) {
  ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  engine::ClientSession session(ckks::CkksContext::create(params),
                                {.mode = ckks::EncryptMode::kPublicKey});
  const std::vector<Message> msgs{random_message(params.slots(), 5)};
  const auto cts = session.encrypt(msgs, 3);
  const Message decoded = session.decrypt_batch(cts).at(0);
  const Message& msg = msgs[0];
  double max_err = 0;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    max_err = std::max(max_err, std::abs(msg[i] - decoded[i]));
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST(PriorWork, RatiosMatchPaper) {
  const PriorWorkPoint sota = sota_client_accelerator(0.5, 0.1);
  EXPECT_DOUBLE_EQ(sota.encode_encrypt_ms, 0.5 * 214.0);
  EXPECT_DOUBLE_EQ(sota.decode_decrypt_ms, 0.1 * 82.0);
  const PriorWorkPoint aloha = aloha_he(0.5, 0.1);
  EXPECT_GT(aloha.encode_encrypt_ms, sota.encode_encrypt_ms);
}

TEST(PriorWork, Fig1SplitCalibration) {
  const double client34 = 100.0;
  const double server = trinity_resnet20_server_ms(client34);
  const double client_share = client34 / (client34 + server);
  EXPECT_NEAR(client_share, 0.694, 1e-3);
  EXPECT_GT(cpu_resnet20_server_ms(server), 1000.0 * server);
}

}  // namespace
}  // namespace abc::baseline
