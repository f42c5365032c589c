#pragma once

/// @file arch_config.hpp
/// ABC-FHE architecture parameters (paper Sec. III / V-A) and derived
/// quantities used by the cycle-level simulator and the area/power model.
///
/// Defaults reproduce the evaluated configuration: 600 MHz, two
/// reconfigurable streaming cores (RSC), four pipelined NTT lanes (PNL)
/// per RSC with a P=8 multi-path delay commutator backbone, 44-bit modular
/// / 55-bit floating-point reconfigurable datapath, LPDDR5 at 68.4 GB/s,
/// and on-chip generation of twiddles (unified OTF TF Gen) and random
/// values (PRNG).

#include <cstddef>

#include "common/check.hpp"
#include "common/types.hpp"

namespace abc::core {

/// External memory model (client-side LPDDR5 by default).
struct DramSpec {
  double bandwidth_gbps = 68.4;  // GB/s
  double efficiency = 1.0;       // achievable fraction of peak

  double bytes_per_second() const noexcept {
    return bandwidth_gbps * 1e9 * efficiency;
  }
};

/// Where operand streams come from (the Fig. 6b ablation).
struct OperandPlacement {
  bool twiddles_on_chip = true;  // unified OTF TF Gen
  bool randomness_on_chip = true;  // PRNG: masks, errors, keys
};

/// Encryption dataflow profile, mirroring ckks::EncryptMode (core/ stays
/// independent of ckks/). JobScheduler derives the per-limb NTT passes,
/// public-key streams and shipped components from it.
enum class EncryptProfile {
  kSymmetricSeeded,  // 1 NTT pass per limb, c1 compressed to a stream id
  kPublicKey,        // 3 NTT passes, pk0/pk1 streams, c0 and c1 shipped
};

struct ArchConfig {
  // Clocking and structure.
  double clock_hz = 600e6;
  int num_rsc = 2;
  int pnl_per_rsc = 4;
  int lanes = 8;  // P: parallel paths per PNL (MDC backbone)

  // Datapath widths.
  int int_bits = 44;   // modular datapath (packed coefficient width)
  int fp_bits = 55;    // custom FP55
  int mse_width = 32;  // MSE element-wise ops per cycle per RSC

  // Memory system.
  DramSpec dram;
  std::size_t global_scratch_bytes = 880 * 1024;
  std::size_t local_scratch_bytes = 440 * 1024;
  std::size_t tf_seed_bytes = 27 * 1024;
  std::size_t instr_bytes = 1024;

  // Data sourcing (Fig. 6b: Base fetches everything from DRAM).
  OperandPlacement placement;

  // Workload shape.
  int log_n = 16;
  std::size_t fresh_limbs = 24;     // client -> server ciphertext level
  std::size_t returned_limbs = 2;   // server -> client ciphertext level
  EncryptProfile enc_profile = EncryptProfile::kSymmetricSeeded;

  // ---- derived quantities ------------------------------------------------

  std::size_t n() const noexcept { return std::size_t{1} << log_n; }

  double cycle_seconds() const noexcept { return 1.0 / clock_hz; }

  /// DRAM bytes deliverable per clock cycle (shared by all streams).
  double dram_bytes_per_cycle() const noexcept {
    return dram.bytes_per_second() / clock_hz;
  }

  /// Packed bytes per modular coefficient / per complex FP word.
  double int_coeff_bytes() const noexcept { return int_bits / 8.0; }
  double fp_word_bytes() const noexcept { return 2.0 * fp_bits / 8.0; }

  /// Twiddle-stream demand of one running transform pass, bytes/cycle:
  /// every one of the (P/2) * log2(N) stage multipliers consumes one
  /// twiddle per cycle when twiddles are not generated on chip.
  double twiddle_bytes_per_cycle(bool fft) const noexcept {
    const double values =
        (static_cast<double>(lanes) / 2.0) * static_cast<double>(log_n);
    return values * (fft ? fp_word_bytes() : int_coeff_bytes());
  }

  void validate() const {
    ABC_CHECK_ARG(clock_hz > 0, "clock must be positive");
    ABC_CHECK_ARG(num_rsc >= 1 && num_rsc <= 16, "num_rsc out of range");
    ABC_CHECK_ARG(pnl_per_rsc >= 1 && pnl_per_rsc <= 64,
                  "pnl_per_rsc out of range");
    ABC_CHECK_ARG(lanes >= 1 && lanes <= 1024 && (lanes & (lanes - 1)) == 0,
                  "lanes must be a power of two");
    ABC_CHECK_ARG(log_n >= 4 && log_n <= 17, "log_n out of range");
    ABC_CHECK_ARG(fresh_limbs >= 1 && returned_limbs >= 1,
                  "limb counts must be positive");
    ABC_CHECK_ARG(mse_width >= 1, "mse_width must be positive");
  }

  /// The paper's evaluated configuration.
  static ArchConfig paper_default() { return ArchConfig{}; }
};

}  // namespace abc::core
