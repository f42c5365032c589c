// Reproduces Fig. 5(b): effect of the number of lanes per pipelined NTT
// lane (P of the MDC backbone) on encode+encrypt execution time and
// sustained throughput. Under LPDDR5 bandwidth the benefit saturates
// around 8 lanes — the configuration ABC-FHE adopts.

#include <cstdio>

#include "common/table.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: Fig. 5b (lane sweep under LPDDR5)\n");

  TextTable table("Encode+encrypt vs lanes per PNL (N = 2^16, 24 limbs)");
  table.set_header({"Lanes (P)", "Exec time (ms)", "Throughput (ct/s)",
                    "DRAM throttle factor"});

  double prev_ms = 0;
  double ms_at_8 = 0, ms_at_64 = 0;
  for (int lanes : {1, 2, 4, 8, 16, 32, 64}) {
    core::ArchConfig cfg = core::ArchConfig::paper_default();
    cfg.enc_profile = core::EncryptProfile::kPublicKey;
    cfg.lanes = lanes;
    cfg.mse_width = 4 * lanes;  // MSE sized to feed the PNL pool
    core::AbcFheSimulator sim(cfg);
    const auto one = sim.run(core::OperatingMode::kDualEncrypt, 1);
    const double throughput = sim.encode_encrypt_throughput();
    table.add_row({std::to_string(lanes), TextTable::fmt(one.latency_ms, 3),
                   TextTable::fmt(throughput, 0),
                   TextTable::fmt(one.sim.dram_throughput_factor, 3)});
    if (lanes == 8) ms_at_8 = one.latency_ms;
    if (lanes == 64) ms_at_64 = one.latency_ms;
    prev_ms = one.latency_ms;
  }
  (void)prev_ms;
  table.print();

  std::printf(
      "\nSaturation check: going from 8 to 64 lanes improves latency only "
      "%.2fx (memory bottleneck; paper caps the design at 8 lanes).\n",
      ms_at_8 / ms_at_64);
  return 0;
}
