#include <gtest/gtest.h>

#include "core/simulator.hpp"

namespace abc::core {
namespace {

ArchConfig small_config() {
  ArchConfig cfg = ArchConfig::paper_default();
  cfg.log_n = 13;
  cfg.fresh_limbs = 6;
  cfg.returned_limbs = 2;
  return cfg;
}

TEST(AbcFheSimulator, EncodeLatencyIsPositiveAndSane) {
  AbcFheSimulator sim(ArchConfig::paper_default());
  const double enc_ms = sim.encode_encrypt_ms();
  const double dec_ms = sim.decode_decrypt_ms();
  EXPECT_GT(enc_ms, 0.01);
  EXPECT_LT(enc_ms, 10.0);
  EXPECT_GT(dec_ms, 0.001);
  EXPECT_LT(dec_ms, 5.0);
  // Encryption at 24 limbs dwarfs decryption at 2 limbs (Fig. 2b).
  EXPECT_GT(enc_ms, 2.0 * dec_ms);
}

TEST(AbcFheSimulator, DualModeDoublesThroughput) {
  ArchConfig cfg = small_config();
  AbcFheSimulator sim(cfg);
  const auto one = sim.run(OperatingMode::kDualEncrypt, 1);
  const auto two = sim.run(OperatingMode::kDualEncrypt, 2);
  // Two jobs on two RSCs nearly overlap (shared DRAM only).
  EXPECT_LT(two.latency_ms, 1.6 * one.latency_ms);
  EXPECT_GT(two.throughput_per_s, 1.35 * one.throughput_per_s);
}

TEST(AbcFheSimulator, MoreLanesNeverSlower) {
  ArchConfig cfg = small_config();
  double prev = 1e30;
  for (int lanes : {1, 2, 4, 8, 16, 32}) {
    cfg.lanes = lanes;
    cfg.mse_width = 4 * lanes;  // MSE sized to the PNL pool as in the paper
    AbcFheSimulator sim(cfg);
    const double ms = sim.encode_encrypt_ms();
    EXPECT_LE(ms, prev * 1.0001) << lanes;
    prev = ms;
  }
}

TEST(AbcFheSimulator, MemoryBottleneckCapsLaneScaling) {
  // Paper Fig. 5(b): under LPDDR5 the benefit saturates around 8 lanes.
  ArchConfig cfg = ArchConfig::paper_default();
  cfg.enc_profile = EncryptProfile::kPublicKey;  // ship both polynomials
  auto time_at = [&](int lanes) {
    cfg.lanes = lanes;
    cfg.mse_width = 4 * lanes;
    return AbcFheSimulator(cfg).encode_encrypt_ms();
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  const double t64 = time_at(64);
  EXPECT_GT(t1 / t8, 3.0);    // strong gains up to 8 lanes
  EXPECT_LT(t8 / t64, 1.7);   // diminishing beyond 8 (DRAM-bound)
}

TEST(AbcFheSimulator, OnChipGenerationAvoidsDramCollapse) {
  // Fig. 6(b): Base (everything from DRAM) vs TF-Gen vs All.
  ArchConfig all = ArchConfig::paper_default();
  ArchConfig tf_only = all;
  tf_only.placement.randomness_on_chip = false;
  ArchConfig base = tf_only;
  base.placement.twiddles_on_chip = false;

  const double t_all = AbcFheSimulator(all).encode_encrypt_ms();
  const double t_tf = AbcFheSimulator(tf_only).encode_encrypt_ms();
  const double t_base = AbcFheSimulator(base).encode_encrypt_ms();
  EXPECT_LT(t_all, t_tf);
  EXPECT_LT(t_tf, t_base);
  // The paper reports 8.2-9.3x Base -> All at bootstrappable parameters;
  // accept the same order of magnitude.
  EXPECT_GT(t_base / t_all, 4.0);
  EXPECT_LT(t_base / t_all, 20.0);
}

TEST(AbcFheSimulator, DramTrafficMatchesShippedBytes) {
  ArchConfig cfg = small_config();
  cfg.enc_profile = EncryptProfile::kPublicKey;
  AbcFheSimulator sim(cfg);
  const auto rep = sim.run(OperatingMode::kDualEncrypt, 1);
  // Written bytes = 2 polynomials x limbs x N x packed width.
  const double expect_mb = 2.0 * cfg.fresh_limbs *
                           static_cast<double>(cfg.n()) *
                           cfg.int_coeff_bytes() / (1024.0 * 1024.0);
  EXPECT_NEAR(rep.dram_write_mb, expect_mb, expect_mb * 0.01);
  // Read bytes = message in + public key streams.
  EXPECT_GT(rep.dram_read_mb, 0.0);
}

TEST(AbcFheSimulator, SeedCompressionHalvesWriteTraffic) {
  ArchConfig pk = small_config();
  pk.enc_profile = EncryptProfile::kPublicKey;
  ArchConfig sym = small_config();
  sym.enc_profile = EncryptProfile::kSymmetricSeeded;
  const auto rep_pk = AbcFheSimulator(pk).run(OperatingMode::kDualEncrypt, 1);
  const auto rep_sym =
      AbcFheSimulator(sym).run(OperatingMode::kDualEncrypt, 1);
  EXPECT_NEAR(rep_sym.dram_write_mb, rep_pk.dram_write_mb / 2.0,
              rep_pk.dram_write_mb * 0.02);
}

TEST(AbcFheSimulator, ConcurrentModeRunsBothJobKinds) {
  ArchConfig cfg = small_config();
  AbcFheSimulator sim(cfg);
  const auto rep = sim.run(OperatingMode::kConcurrent, 2);
  // Concurrent enc+dec finishes no later than enc alone plus dec alone.
  const double enc = sim.run(OperatingMode::kDualEncrypt, 1).latency_ms;
  const double dec = sim.run(OperatingMode::kDualDecrypt, 1).latency_ms;
  EXPECT_LT(rep.latency_ms, enc + dec);
  EXPECT_GE(rep.latency_ms, std::max(enc, dec) * 0.99);
}

TEST(AbcFheSimulator, DegreeSweepScalesWork) {
  ArchConfig cfg = ArchConfig::paper_default();
  double prev = 0;
  for (int log_n : {13, 14, 15, 16}) {
    cfg.log_n = log_n;
    const double ms = AbcFheSimulator(cfg).encode_encrypt_ms();
    EXPECT_GT(ms, prev) << log_n;  // bigger N, longer latency
    prev = ms;
  }
}

TEST(AbcFheSimulator, EncodeEncryptThroughputIsPinned) {
  // Sustained dual-encrypt rate at N = 2^13, 8 fresh limbs, public-key
  // profile: a deterministic model output, pinned so a scheduler or
  // stream-model change shows up as a diff here.
  ArchConfig cfg = ArchConfig::paper_default();
  cfg.log_n = 13;
  cfg.fresh_limbs = 8;
  cfg.enc_profile = EncryptProfile::kPublicKey;
  const double rate = AbcFheSimulator(cfg).encode_encrypt_throughput();
  EXPECT_NEAR(rate, 34937.8658914615, 1e-9 * rate);
}

TEST(AbcFheSimulator, UtilizationBounded) {
  AbcFheSimulator sim(ArchConfig::paper_default());
  const auto rep = sim.run(OperatingMode::kDualEncrypt, 4);
  EXPECT_GT(rep.pnl_utilization, 0.0);
  EXPECT_LE(rep.pnl_utilization, 1.0 + 1e-9);
  EXPECT_GT(rep.mse_utilization, 0.0);
  EXPECT_LE(rep.mse_utilization, 1.0 + 1e-9);
}

}  // namespace
}  // namespace abc::core
