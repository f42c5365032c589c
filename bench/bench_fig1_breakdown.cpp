// Reproduces Fig. 1: execution-time breakdown of client-side vs
// server-side work for one ResNet-20 inference under FHE, across three
// stacks:
//   (1) CPU client + CPU server        — evaluation dominates (99.9%),
//   (2) SOTA client [34] + Trinity [9] — client dominates (69.4% / 30.6%),
//   (3) ABC-FHE client + Trinity [9]   — client share collapses (~12.8%).
// Client times are measured (CPU) / simulated (ABC-FHE); server times use
// the Fig. 1-calibrated Trinity model (see prior_work.hpp).

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
  std::puts("ABC-FHE reproduction :: Fig. 1 (client/server breakdown, ResNet-20)\n");

  // Client-side cost per inference: one encode+encrypt (input image) at
  // 24 limbs and one decode+decrypt (logits) at 2, N = 2^16 — Fig. 5a's
  // CPU workload (public-key ClientSession, one thread, median of 3).
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::bootstrappable());
  engine::ClientSession session(ctx, {.mode = ckks::EncryptMode::kPublicKey});
  std::vector<std::vector<std::complex<double>>> msgs(1);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t i = 0; i < ctx->slots(); ++i) {
    msgs[0].emplace_back(dist(rng), dist(rng));
  }
  const std::vector<ckks::Ciphertext> returned = session.encrypt(msgs, 2);
  const double cpu_client =
      1e3 * (bench::time_median_of(3, [&] {
               (void)session.encrypt(msgs, ctx->max_limbs());
             }) +
             bench::time_median_of(3, [&] {
               (void)session.decrypt_batch(returned);
             }));

  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  core::AbcFheSimulator sim(cfg);
  const double abc_client = sim.encode_encrypt_ms() + sim.decode_decrypt_ms();

  const auto sota = baseline::sota_client_accelerator(
      sim.encode_encrypt_ms(), sim.decode_decrypt_ms());
  const double sota_client =
      sota.encode_encrypt_ms + sota.decode_decrypt_ms;

  const double trinity = baseline::trinity_resnet20_server_ms(sota_client);
  const double cpu_server = baseline::cpu_resnet20_server_ms(trinity);

  TextTable table("End-to-end breakdown per inference");
  table.set_header({"Stack", "Client (ms)", "Server (ms)", "Client share",
                    "Paper"});
  auto row = [&](const char* name, double client, double server,
                 const char* paper_share) {
    table.add_row({name, TextTable::fmt_eng(client),
                   TextTable::fmt_eng(server),
                   TextTable::fmt(100.0 * client / (client + server), 1) + "%",
                   paper_share});
  };
  row("CPU client + CPU server (dual Xeon)", cpu_client, cpu_server,
      "server evals ~99.9% of time");
  row("SOTA client [34] + Trinity [9]", sota_client, trinity,
      "client 69.4% / server 30.6%");
  row("ABC-FHE + Trinity [9]", abc_client, trinity, "client ~12.8%");
  table.print();

  const double share34 = 100.0 * sota_client / (sota_client + trinity);
  const double share_abc = 100.0 * abc_client / (abc_client + trinity);
  std::printf(
      "\nShape check: accelerating the server flips the bottleneck to the\n"
      "client (%.1f%% with [34]); ABC-FHE collapses the client share to\n"
      "%.1f%% (paper: 12.8%%; our simulated ABC-FHE is faster relative to\n"
      "[34] than the paper's silicon, so the share drops further).\n",
      share34, share_abc);
  return 0;
}
