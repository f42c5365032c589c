// Explores the accelerator design space: sweeps lanes, PNL count and
// operand placement, and prints a latency / area Pareto table — the kind
// of study behind the paper's choice of 2 RSC x 4 PNL x P=8 under LPDDR5.
//
// Run: ./build/design_space_explorer

#include <cstdio>

#include "common/table.hpp"
#include "core/area_model.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts("== ABC-FHE design-space explorer ==\n");
  std::puts("Sweeping lanes x PNLs at N = 2^16, 24-limb public-key encrypt;");
  std::puts("area from the Table I-calibrated 28nm model.\n");

  const core::TechConstants tc = core::calibrate_28nm();

  TextTable table("Latency vs area Pareto sweep");
  table.set_header({"PNLs/RSC", "Lanes (P)", "Enc+enc (ms)", "Throughput (ct/s)",
                    "Chip area (mm^2)", "Power (W)", "ms x mm^2"});

  double best_product = 1e30;
  int best_pnl = 0, best_lanes = 0;
  for (int pnl : {2, 4, 8}) {
    for (int lanes : {4, 8, 16}) {
      core::ArchConfig cfg = core::ArchConfig::paper_default();
      cfg.pnl_per_rsc = pnl;
      cfg.lanes = lanes;
      cfg.mse_width = pnl * lanes;
      cfg.enc_profile = core::EncryptProfile::kPublicKey;
      core::AbcFheSimulator sim(cfg);
      const double ms = sim.encode_encrypt_ms();
      const double tput = sim.encode_encrypt_throughput();
      const core::AreaPowerBreakdown bd = core::abc_fhe_breakdown(cfg, tc);
      const double product = ms * bd.total_area_mm2();
      if (product < best_product) {
        best_product = product;
        best_pnl = pnl;
        best_lanes = lanes;
      }
      table.add_row({std::to_string(pnl), std::to_string(lanes),
                     TextTable::fmt(ms, 3), TextTable::fmt(tput, 0),
                     TextTable::fmt(bd.total_area_mm2(), 2),
                     TextTable::fmt(bd.total_power_w(), 2),
                     TextTable::fmt(product, 2)});
    }
  }
  table.print();
  std::printf(
      "\nBest latency-area product: %d PNLs x %d lanes (paper selects "
      "4 x 8 under the same LPDDR5 constraint).\n",
      best_pnl, best_lanes);

  // Operand placement ablation at the chosen point.
  TextTable placement("Operand placement at 4 PNL x P=8");
  placement.set_header({"Twiddles", "Randomness", "Enc+enc (ms)"});
  for (auto [tf, prng, label_tf, label_prng] :
       {std::tuple{false, false, "DRAM", "DRAM"},
        std::tuple{true, false, "on-chip", "DRAM"},
        std::tuple{true, true, "on-chip", "on-chip"}}) {
    core::ArchConfig cfg = core::ArchConfig::paper_default();
    cfg.enc_profile = core::EncryptProfile::kPublicKey;
    cfg.placement.twiddles_on_chip = tf;
    cfg.placement.randomness_on_chip = prng;
    placement.add_row({label_tf, label_prng,
                       TextTable::fmt(core::AbcFheSimulator(cfg)
                                          .encode_encrypt_ms(),
                                      3)});
  }
  std::puts("");
  placement.print();
  return 0;
}
