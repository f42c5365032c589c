// Drives the ABC-FHE cycle-level simulator directly: configures the
// architecture, runs the three RSC operating modes (paper Sec. III), and
// prints latency, throughput, utilization, DRAM traffic, plus the area /
// power report of the configured chip.
//
// Run: ./build/client_accelerator_sim

#include <cstdio>

#include "common/table.hpp"
#include "core/area_model.hpp"
#include "core/simulator.hpp"
#include "core/tech_scale.hpp"

int main() {
  using namespace abc;
  std::puts("== ABC-FHE accelerator simulator demo ==\n");

  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  std::printf(
      "Configuration: %d RSC x %d PNL, P = %d lanes, %d MHz, LPDDR5 "
      "%.1f GB/s\nWorkload: N = 2^%d, %zu-limb encrypt, %zu-limb decrypt\n\n",
      cfg.num_rsc, cfg.pnl_per_rsc, cfg.lanes,
      static_cast<int>(cfg.clock_hz / 1e6), cfg.dram.bandwidth_gbps,
      cfg.log_n, cfg.fresh_limbs, cfg.returned_limbs);

  core::AbcFheSimulator sim(cfg);

  TextTable modes("Operating modes (batch of 8 jobs)");
  modes.set_header({"Mode", "Makespan (ms)", "Jobs/s", "PNL util",
                    "MSE util", "DRAM rd (MB)", "DRAM wr (MB)"});
  const struct {
    core::OperatingMode mode;
    const char* name;
  } cases[] = {
      {core::OperatingMode::kDualEncrypt, "dual-encrypt"},
      {core::OperatingMode::kDualDecrypt, "dual-decrypt"},
      {core::OperatingMode::kConcurrent, "encrypt + decrypt"},
  };
  for (const auto& c : cases) {
    const auto rep = sim.run(c.mode, 8);
    modes.add_row({c.name, TextTable::fmt(rep.latency_ms, 3),
                   TextTable::fmt(rep.throughput_per_s, 0),
                   TextTable::fmt(rep.pnl_utilization, 2),
                   TextTable::fmt(rep.mse_utilization, 2),
                   TextTable::fmt(rep.dram_read_mb, 1),
                   TextTable::fmt(rep.dram_write_mb, 1)});
  }
  modes.print();

  std::printf("\nSingle-job latency: encode+encrypt %.3f ms, "
              "decode+decrypt %.3f ms\n\n",
              sim.encode_encrypt_ms(), sim.decode_decrypt_ms());

  // Chip report.
  const core::TechConstants tc = core::calibrate_28nm();
  const core::AreaPowerBreakdown bd = core::abc_fhe_breakdown(cfg, tc);
  std::printf("Chip at 28 nm: %.2f mm^2, %.2f W; at 7 nm: %.2f mm^2, %.2f W\n",
              bd.total_area_mm2(), bd.total_power_w(),
              core::scale_area_mm2(bd.total_area_mm2(), core::TechNode::k7),
              core::scale_power_w(bd.total_power_w(), core::TechNode::k7));
  return 0;
}
