#pragma once

/// @file hw_units.hpp
/// 28 nm unit-area/power library. The three lumped logic constants
/// (multiplier um^2/bit^2, shift-add um^2/bit, pipeline-register um^2/bit)
/// are solved exactly from the paper's Table I modular-multiplier areas,
/// then reused to compose every larger block (PNL, MSE, TF Gen) for
/// Table II. SRAM densities are calibrated from the paper's scratchpad
/// rows. Power uses per-class area densities calibrated the same way.
/// All calibration targets and the resulting constants are printed by
/// bench_table1_modmul / bench_table2_area and recorded in
/// docs/EXPERIMENTS.md E4 and E6.

#include "rns/modmul_algorithms.hpp"

namespace abc::core {

/// Table I targets (um^2, 28 nm, 600 MHz, 44-bit datapath).
struct TableITargets {
  double barrett = 35054.0;
  double vanilla_montgomery = 19255.0;
  double ntt_friendly_montgomery = 11328.0;
};

struct TechConstants {
  // Logic (solved from Table I).
  double mult_um2_per_bit2 = 0.0;   // kappa
  double shift_add_um2_per_bit = 0.0;  // beta
  double reg_um2_per_bit = 0.0;     // gamma

  // SRAM (calibrated from Table II scratchpad rows).
  double sram_sp_um2_per_bit = 0.182;   // single-port, multi-bank (local)
  double sram_db_um2_per_bit = 0.365;   // double-buffered (global)
  double sram_seed_um2_per_bit = 0.213; // TF seed memory

  // Composition factors.
  double fp_reconfig_overhead = 1.25;  // modular -> FP55-capable multiplier
  double block_misc_overhead = 1.20;   // shuffling, muxes, local control

  // Power densities, W per mm^2 at 600 MHz (from Table II row ratios).
  double logic_power_density = 0.130;
  double mse_power_density = 0.379;
  double sram_power_density = 0.490;
  double prng_power_density = 0.406;
};

/// Area of one modular multiplier instance from its structural cost.
double modmul_area_um2(const rns::ModMulCost& cost, const TechConstants& tc);

/// Solves the three logic constants so modmul_area_um2 reproduces the
/// Table I areas exactly for the given prime's cost structures. Throws if
/// the calibration system is singular or yields non-positive constants.
TechConstants calibrate_28nm(u64 reference_prime = (u64{1} << 36) -
                                                   (u64{1} << 18) + 1,
                             int datapath_bits = 44,
                             const TableITargets& targets = {});

}  // namespace abc::core
