// Reproduces Table II: area and power breakdown of ABC-FHE at 28nm,
// composed bottom-up from the Table I-calibrated unit library, plus the
// Sec. V-A 7nm projection.

#include <cstdio>

#include "common/table.hpp"
#include "core/area_model.hpp"
#include "core/tech_scale.hpp"

int main() {
  using namespace abc;
  std::puts("ABC-FHE reproduction :: Table II (area & power breakdown)\n");

  const core::TechConstants tc = core::calibrate_28nm();
  const core::ArchConfig cfg = core::ArchConfig::paper_default();
  const core::AreaPowerBreakdown bd = core::abc_fhe_breakdown(cfg, tc);

  // Paper values for side-by-side comparison.
  struct PaperRow {
    const char* name;
    double area;
    double power;
  };
  const PaperRow paper[] = {
      {"4x PNL", 10.717, 1.397},
      {"Unified OTF TF Gen", 0.697, 0.089},
      {"Twiddle Factor Seed Memory", 0.046, 0.022},
      {"MSE", 0.787, 0.298},
      {"PRNG", 0.069, 0.028},
      {"Local Scratchpad", 0.658, 0.323},
      {"RSC", 12.973, 2.156},
      {"2x RSC", 25.946, 4.313},
      {"Global Scratchpad", 2.632, 1.290},
      {"Top CTRL, DMA, Etc.", 0.060, 0.051},
  };

  TextTable table("Table II: Area and power breakdown of ABC-FHE (28nm)");
  table.set_header({"Component", "Area (mm^2)", "Paper", "Power (W)",
                    "Paper"});
  for (const PaperRow& row : paper) {
    const auto& e = bd.find(row.name);
    table.add_row({row.name, TextTable::fmt(e.area_mm2, 3),
                   TextTable::fmt(row.area, 3), TextTable::fmt(e.power_w, 3),
                   TextTable::fmt(row.power, 3)});
  }
  table.add_row({"Total", TextTable::fmt(bd.total_area_mm2(), 3),
                 TextTable::fmt(28.638, 3),
                 TextTable::fmt(bd.total_power_w(), 3),
                 TextTable::fmt(5.654, 3)});
  table.print();

  const double a7 = core::scale_area_mm2(bd.total_area_mm2(),
                                         core::TechNode::k7);
  const double p7 = core::scale_power_w(bd.total_power_w(),
                                        core::TechNode::k7);
  std::printf(
      "\n7nm projection (DeepScaleTool-style factors): %.2f mm^2, %.2f W "
      "(paper: ~0.9 mm^2, ~2.1 W; see docs/EXPERIMENTS.md E6 for the "
      "area-factor discussion)\n",
      a7, p7);
  return 0;
}
