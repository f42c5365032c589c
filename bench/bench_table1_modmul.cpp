// Reproduces Table I: area and pipeline depth of the three modular
// multiplier datapaths, plus the Sec. IV-A prime-selection claims (sparse
// QInv shift-add form; "443 primes of 32-36 bits at N=2^16").
// Also micro-benchmarks the functional software models.

#include <chrono>
#include <cstdio>
#include <random>

#include "common/table.hpp"
#include "core/hw_units.hpp"
#include "rns/modmul_algorithms.hpp"
#include "rns/ntt_prime.hpp"

namespace {

using namespace abc;

double time_ns_per_op(const rns::HwModMul& mm, u64 q) {
  std::mt19937_64 rng(7);
  std::vector<u64> a(4096), b(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng() % q;
    b[i] = rng() % q;
  }
  volatile u64 sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kReps = 50;
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < a.size(); ++i) sink = sink + mm.mul(a[i], b[i]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         (kReps * static_cast<double>(a.size()));
}

}  // namespace

int main() {
  std::puts("ABC-FHE reproduction :: Table I (modular multiplier area)\n");

  const u64 q = (u64{1} << 36) - (u64{1} << 18) + 1;
  const core::TechConstants tc = core::calibrate_28nm(q, 44);
  auto all = rns::make_all_modmuls(q, 44);

  TextTable table("Table I: Area of modular multiplier (28nm, 600MHz, 44-bit)");
  table.set_header({"Algorithm", "Area model (um^2)", "Paper (um^2)",
                    "Stages", "SW model (ns/op)"});
  const double paper_areas[] = {35054, 19255, 11328};
  int row = 0;
  for (const auto& mm : all) {
    table.add_row({mm->name(),
                   TextTable::fmt(core::modmul_area_um2(mm->cost(44), tc), 0),
                   TextTable::fmt(paper_areas[row], 0),
                   std::to_string(mm->pipeline_stages()),
                   TextTable::fmt(time_ns_per_op(*mm, q), 1)});
    ++row;
  }
  table.print();

  std::printf(
      "\nCalibrated 28nm logic constants: mult %.4f um^2/bit^2, "
      "shift-add %.4f um^2/bit, pipeline reg %.4f um^2/bit\n",
      tc.mult_um2_per_bit2, tc.shift_add_um2_per_bit, tc.reg_um2_per_bit);

  // Prime methodology (paper eq. 8 / eq. 11).
  rns::NttFriendlyMontgomeryHwModMul friendly(q, 44);
  std::printf(
      "\nReference prime q = 2^36 - 2^18 + 1: shift-add terms for Q: %d, "
      "for QInv (mod 2^44): %d -> no multiplier needed beyond a*b.\n",
      friendly.q_weight(), friendly.qinv_weight());

  TextTable primes("Hardware-friendly NTT primes at N = 2^16 (paper: 443 total for 32-36b)");
  primes.set_header({"Bit width", "NTT primes (q=1 mod 2N)",
                     "Sparse Q (eq. 8)", "Sparse Q and QInv (eq. 8 + 11)"});
  std::size_t total_all = 0, total_sparse = 0, total_friendly = 0;
  for (int bw = 32; bw <= 36; ++bw) {
    const auto every = rns::enumerate_ntt_primes(bw, 16);
    const auto sparse = rns::enumerate_sparse_ntt_primes(bw, 16, 3);
    const auto friendly = rns::enumerate_paper_friendly_primes(bw, 16);
    total_all += every.size();
    total_sparse += sparse.size();
    total_friendly += friendly.size();
    primes.add_row({std::to_string(bw), std::to_string(every.size()),
                    std::to_string(sparse.size()),
                    std::to_string(friendly.size())});
  }
  primes.add_row({"total (32-36)", std::to_string(total_all),
                  std::to_string(total_sparse),
                  std::to_string(total_friendly)});
  std::puts("");
  primes.print();
  std::printf(
      "\nPaper claims 443 usable primes; the full eq. 8 + eq. 11 criterion "
      "(sparse Q and <= 5-term QInv) finds %zu. See docs/EXPERIMENTS.md "
      "E5.\n",
      total_friendly);
  return 0;
}
