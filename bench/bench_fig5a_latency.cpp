// Reproduces Fig. 5(a): execution time and speed-up of ABC-FHE for
// encoding+encryption and decoding+decryption against the CPU baseline
// and the prior accelerators [22]/[34].
//
// CPU: this host, standing in for Lattigo on the paper's i7-12700. The
// workload is the public-key profile at the bootstrappable parameters
// through engine::ClientSession on one thread (the default scalar
// backend): encrypt() of one message at 24 limbs, and decrypt_batch() of
// one fresh 2-limb ciphertext. Each row is the median of 3 timed calls.
// This is the same Encryptor/Decryptor code that perfbench's client_paper
// workload times, but not the same number: client_paper is a
// symmetric-seeded round trip whose request time also covers
// (de)serialization, the server's level drop and the verify.
// ABC-FHE: the cycle-level streaming simulator at the paper configuration.
// [34]/[22]: paper-ratio-derived analytic points (see prior_work.hpp).

#include <complex>
#include <cstdio>
#include <random>
#include <vector>

#include "baseline/prior_work.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/simulator.hpp"
#include "engine/client_session.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: Fig. 5a (latency & speed-up)\n");
  std::puts("Workload: N = 2^16; encode+encrypt at 24 limbs,");
  std::puts("decode+decrypt at 2 limbs; public-key profile on both sides.\n");

  // CPU baseline (measured).
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::bootstrappable());
  engine::ClientSession session(ctx, {.mode = ckks::EncryptMode::kPublicKey});
  std::vector<std::vector<std::complex<double>>> msgs(1);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t i = 0; i < ctx->slots(); ++i) {
    msgs[0].emplace_back(dist(rng), dist(rng));
  }
  const std::vector<ckks::Ciphertext> returned = session.encrypt(msgs, 2);
  const double cpu_enc = 1e3 * bench::time_median_of(3, [&] {
    (void)session.encrypt(msgs, ctx->max_limbs());
  });
  const double cpu_dec = 1e3 * bench::time_median_of(3, [&] {
    (void)session.decrypt_batch(returned);
  });

  // ABC-FHE (simulated).
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  core::AbcFheSimulator sim(cfg);
  const double abc_enc = sim.encode_encrypt_ms();
  const double abc_dec = sim.decode_decrypt_ms();

  // Prior accelerators (paper-ratio models).
  const auto sota = baseline::sota_client_accelerator(abc_enc, abc_dec);
  const auto aloha = baseline::aloha_he(abc_enc, abc_dec);

  TextTable enc("Encoding + Encryption");
  enc.set_header({"Platform", "Time (ms)", "Speed-up vs ABC-FHE",
                  "Paper speed-up"});
  enc.add_row({"CPU (1 thread, this host)", TextTable::fmt(cpu_enc, 3),
               TextTable::fmt(cpu_enc / abc_enc, 0) + "x",
               "1112x"});
  enc.add_row({aloha.name, TextTable::fmt(aloha.encode_encrypt_ms, 3),
               TextTable::fmt(aloha.encode_encrypt_ms / abc_enc, 0) + "x",
               "~214x (grouped SOTA)"});
  enc.add_row({sota.name, TextTable::fmt(sota.encode_encrypt_ms, 3),
               TextTable::fmt(sota.encode_encrypt_ms / abc_enc, 0) + "x",
               "214x"});
  enc.add_row({"ABC-FHE (this work, simulated)", TextTable::fmt(abc_enc, 3),
               "1x", "1x"});
  enc.print();
  std::puts("");

  TextTable dec("Decoding + Decryption");
  dec.set_header({"Platform", "Time (ms)", "Speed-up vs ABC-FHE",
                  "Paper speed-up"});
  dec.add_row({"CPU (1 thread, this host)", TextTable::fmt(cpu_dec, 3),
               TextTable::fmt(cpu_dec / abc_dec, 0) + "x",
               "963x"});
  dec.add_row({aloha.name, TextTable::fmt(aloha.decode_decrypt_ms, 3),
               TextTable::fmt(aloha.decode_decrypt_ms / abc_dec, 0) + "x",
               "~82x (grouped SOTA)"});
  dec.add_row({sota.name, TextTable::fmt(sota.decode_decrypt_ms, 3),
               TextTable::fmt(sota.decode_decrypt_ms / abc_dec, 0) + "x",
               "82x"});
  dec.add_row({"ABC-FHE (this work, simulated)", TextTable::fmt(abc_dec, 3),
               "1x", "1x"});
  dec.print();

  std::printf(
      "\nABC-FHE simulated: encode+encrypt %.3f ms, decode+decrypt %.3f ms "
      "(600 MHz, LPDDR5 68.4 GB/s).\n",
      abc_enc, abc_dec);
  std::puts("Speed-up shape check: enc speed-up > dec speed-up, both >> 1.");
  return 0;
}
