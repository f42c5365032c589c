// Reproduces Fig. 6(b): execution time across polynomial degrees for the
// three operand-placement configurations:
//   ABC-FHE_Base   — twiddles, masks, errors and keys fetched from DRAM;
//   ABC-FHE_TF_Gen — twiddles generated on chip, randomness from DRAM;
//   ABC-FHE_All    — unified OTF TF Gen + PRNG generate everything on chip.
// Paper: 8.2-9.3x latency reduction Base -> All.

#include <cstdio>

#include "common/table.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: Fig. 6b (on-chip generation ablation)\n");

  TextTable table("Encode+encrypt time (ms) vs polynomial degree");
  table.set_header({"N", "Base", "TF_Gen", "All", "Base/All speed-up"});

  for (int log_n : {13, 14, 15, 16}) {
    auto time_of = [&](bool tf_on_chip, bool prng_on_chip) {
      core::ArchConfig cfg = core::ArchConfig::paper_default();
      cfg.log_n = log_n;
      cfg.enc_profile = core::EncryptProfile::kPublicKey;
      cfg.placement.twiddles_on_chip = tf_on_chip;
      cfg.placement.randomness_on_chip = prng_on_chip;
      return core::AbcFheSimulator(cfg).encode_encrypt_ms();
    };
    const double base = time_of(false, false);
    const double tf_gen = time_of(true, false);
    const double all = time_of(true, true);
    table.add_row({"2^" + std::to_string(log_n), TextTable::fmt(base, 3),
                   TextTable::fmt(tf_gen, 3), TextTable::fmt(all, 3),
                   TextTable::fmt(base / all, 2) + "x"});
  }
  table.print();
  std::puts("\nPaper reports 8.2-9.3x Base -> All across degrees; the");
  std::puts("mechanism is concurrent operand streams oversubscribing LPDDR5.");
  return 0;
}
