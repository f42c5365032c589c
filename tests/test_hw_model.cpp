#include <gtest/gtest.h>

#include "core/area_model.hpp"
#include "core/design_space.hpp"
#include "core/hw_units.hpp"
#include "core/tech_scale.hpp"

namespace abc::core {
namespace {

TEST(HwUnits, CalibrationReproducesTableI) {
  const TechConstants tc = calibrate_28nm();
  EXPECT_GT(tc.mult_um2_per_bit2, 0);
  EXPECT_GT(tc.shift_add_um2_per_bit, 0);
  EXPECT_GT(tc.reg_um2_per_bit, 0);

  constexpr u64 q = (u64{1} << 36) - (u64{1} << 18) + 1;
  rns::BarrettHwModMul barrett(q);
  rns::MontgomeryHwModMul mont(q, 44);
  rns::NttFriendlyMontgomeryHwModMul nttf(q, 44);
  EXPECT_NEAR(modmul_area_um2(barrett.cost(44), tc), 35054.0, 1.0);
  EXPECT_NEAR(modmul_area_um2(mont.cost(44), tc), 19255.0, 1.0);
  EXPECT_NEAR(modmul_area_um2(nttf.cost(44), tc), 11328.0, 1.0);
}

TEST(HwUnits, TableIOrderingHoldsForOtherSparsePrimes) {
  const TechConstants tc = calibrate_28nm();
  for (u64 q : {(u64{1} << 36) + (u64{3} << 17) + 1,
                (u64{1} << 35) + (u64{1} << 17) + 1}) {
    rns::BarrettHwModMul barrett(q);
    rns::MontgomeryHwModMul mont(q, 44);
    rns::NttFriendlyMontgomeryHwModMul nttf(q, 44);
    const double a_b = modmul_area_um2(barrett.cost(44), tc);
    const double a_m = modmul_area_um2(mont.cost(44), tc);
    const double a_f = modmul_area_um2(nttf.cost(44), tc);
    EXPECT_GT(a_b, a_m) << q;
    EXPECT_GT(a_m, a_f) << q;
  }
}

TEST(AreaModel, TableIIRowsWithinTolerance) {
  const TechConstants tc = calibrate_28nm();
  const ArchConfig cfg = ArchConfig::paper_default();
  const AreaPowerBreakdown bd = abc_fhe_breakdown(cfg, tc);

  // Paper Table II values (mm^2). Bottom-up composition should land
  // within ~35% per row and ~20% on the total.
  const struct {
    const char* name;
    double area;
  } rows[] = {
      {"4x PNL", 10.717},       {"Unified OTF TF Gen", 0.697},
      {"MSE", 0.787},           {"PRNG", 0.069},
      {"Local Scratchpad", 0.658}, {"Global Scratchpad", 2.632},
  };
  for (const auto& row : rows) {
    const double got = bd.find(row.name).area_mm2;
    EXPECT_NEAR(got, row.area, row.area * 0.35) << row.name;
  }
  EXPECT_NEAR(bd.total_area_mm2(), 28.638, 28.638 * 0.20);
  EXPECT_NEAR(bd.total_power_w(), 5.654, 5.654 * 0.25);
}

TEST(AreaModel, RscSubtotalConsistent) {
  const TechConstants tc = calibrate_28nm();
  const AreaPowerBreakdown bd =
      abc_fhe_breakdown(ArchConfig::paper_default(), tc);
  const double rsc = bd.find("RSC").area_mm2;
  const double two_rsc = bd.find("2x RSC").area_mm2;
  EXPECT_NEAR(two_rsc, 2.0 * rsc, 1e-9);
  EXPECT_GT(bd.total_area_mm2(), two_rsc);
}

TEST(AreaModel, AreaScalesWithLanes) {
  const TechConstants tc = calibrate_28nm();
  ArchConfig small = ArchConfig::paper_default();
  small.lanes = 4;
  ArchConfig large = ArchConfig::paper_default();
  large.lanes = 16;
  EXPECT_LT(pnl_area_mm2(small, tc), pnl_area_mm2(large, tc));
}

TEST(TechScale, SevenNanometerProjection) {
  // Paper Sec. V-A: 28.638 mm^2 / 5.654 W scale to ~0.9 mm^2 / 2.1 W at
  // 7 nm with DeepScaleTool. Our realistic density factors land in the
  // same regime for power; area is conservative (docs/EXPERIMENTS.md E6).
  const double area7 = scale_area_mm2(28.638, TechNode::k7);
  const double power7 = scale_power_w(5.654, TechNode::k7);
  EXPECT_LT(area7, 3.5);
  EXPECT_GT(area7, 0.5);
  EXPECT_NEAR(power7, 2.1, 0.5);
}

TEST(TechScale, MonotoneAcrossNodes) {
  double prev_area = 1e9, prev_power = 1e9;
  for (TechNode node : {TechNode::k28, TechNode::k22, TechNode::k16,
                        TechNode::k12, TechNode::k10, TechNode::k7,
                        TechNode::k5}) {
    const double a = scale_area_mm2(10.0, node);
    const double p = scale_power_w(10.0, node);
    EXPECT_LT(a, prev_area);
    EXPECT_LT(p, prev_power);
    prev_area = a;
    prev_power = p;
  }
}

TEST(DesignSpace, Radix2nIsMinimum) {
  const int log_n = 16, lanes = 8;
  const double r2n = multiplier_instances(radix2n_config(log_n),
                                          TransformKind::kNtt, log_n, lanes);
  EXPECT_DOUBLE_EQ(r2n, 4.0 * 16);  // P/2 * log N
  for (const RadixConfig& cfg : enumerate_radix_configs(8, 3)) {
    const double m =
        multiplier_instances(cfg, TransformKind::kNtt, 8, lanes);
    EXPECT_GE(m, multiplier_instances(radix2n_config(8),
                                      TransformKind::kNtt, 8, lanes) - 1e-9);
  }
}

TEST(DesignSpace, PaperReductionsReproduced) {
  const int log_n = 16, lanes = 8;
  const double r2n = multiplier_instances(radix2n_config(log_n),
                                          TransformKind::kNtt, log_n, lanes);
  const double r2 = multiplier_instances(radix2_config(log_n),
                                         TransformKind::kNtt, log_n, lanes);
  const double r4 = multiplier_instances(radix4_config(log_n),
                                         TransformKind::kNtt, log_n, lanes);
  EXPECT_NEAR(1.0 - r2n / r2, 0.297, 0.02);  // paper: 29.7%
  EXPECT_NEAR(1.0 - r2n / r4, 0.223, 0.02);  // paper: 22.3%
}

TEST(DesignSpace, FftOverheadsSmallerThanNtt) {
  const int log_n = 16, lanes = 8;
  for (auto make : {radix2_config, radix4_config, radix8_config}) {
    const RadixConfig cfg = make(log_n);
    EXPECT_LT(
        multiplier_instances(cfg, TransformKind::kFft, log_n, lanes),
        multiplier_instances(cfg, TransformKind::kNtt, log_n, lanes));
  }
}

TEST(DesignSpace, EnumerationCountsCompositions) {
  // Compositions of n into parts {1,2,3} follow the tribonacci numbers.
  EXPECT_EQ(enumerate_radix_configs(4, 3).size(), 7u);
  EXPECT_EQ(enumerate_radix_configs(6, 3).size(), 24u);
  EXPECT_EQ(enumerate_radix_configs(8, 3).size(), 81u);
}

TEST(DesignSpace, RfeAreaLadderMonotone) {
  const TechConstants tc = calibrate_28nm();
  const RfeAreaLadder ladder =
      rfe_area_ladder(ArchConfig::paper_default(), tc);
  EXPECT_GT(ladder.baseline_mm2, ladder.tf_scheduling_mm2);
  EXPECT_GT(ladder.tf_scheduling_mm2, ladder.montmul_mm2);
  EXPECT_GT(ladder.montmul_mm2, ladder.reconfigurable_mm2);
  // Paper: 31% total reduction; same order here.
  EXPECT_GT(ladder.total_reduction(), 0.2);
  EXPECT_LT(ladder.total_reduction(), 0.6);
}

}  // namespace
}  // namespace abc::core
