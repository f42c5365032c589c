#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <random>

#include "simd/simd_caps.hpp"
#include "transform/dwt.hpp"

namespace abc::xf {
namespace {

std::vector<Cx<double>> random_complex(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Cx<double>> v(n);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

/// The points a naive O(N)-per-point check visits: all of [0, count) up to
/// 2^10, above that a seeded sample of 64 (a full sweep is quadratic).
std::vector<std::size_t> checked_points(std::size_t count, u64 seed) {
  std::vector<std::size_t> points(count);
  std::iota(points.begin(), points.end(), std::size_t{0});
  if (count > 1024) {
    std::mt19937_64 rng(seed);
    points.resize(64);
    for (std::size_t& p : points) p = rng() % count;
  }
  return points;
}

class DwtParamTest : public ::testing::TestWithParam<int> {};

TEST_P(DwtParamTest, ForwardInverseRoundtrip) {
  const int log_n = GetParam();
  CkksDwtPlan plan(log_n);
  auto a = random_complex(plan.n(), 5);
  const auto original = a;
  plan.forward(std::span<Cx<double>>(a));
  plan.inverse(std::span<Cx<double>>(a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].re, original[i].re, 1e-10);
    EXPECT_NEAR(a[i].im, original[i].im, 1e-10);
  }
}

TEST_P(DwtParamTest, ForwardMatchesNaiveEvaluation) {
  // Position brv(j) after forward() holds the evaluation at zeta^{2j+1}.
  const int log_n = GetParam();
  CkksDwtPlan plan(log_n);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> coeffs(plan.n());
  for (double& c : coeffs) c = dist(rng);

  std::vector<Cx<double>> a(plan.n());
  for (std::size_t i = 0; i < plan.n(); ++i) a[i] = {coeffs[i], 0.0};
  plan.forward(std::span<Cx<double>>(a));

  for (const std::size_t j : checked_points(plan.n(), 12)) {
    const Cx<double> expected =
        eval_poly_at_zeta_pow(coeffs, plan, 2 * j + 1);
    const std::size_t pos = bit_reverse(j, log_n);
    EXPECT_NEAR(a[pos].re, expected.re, 1e-8) << "j=" << j;
    EXPECT_NEAR(a[pos].im, expected.im, 1e-8) << "j=" << j;
  }
}

TEST_P(DwtParamTest, IndexMapReadsGenerator3Orbit) {
  // Slot i of the canonical embedding = evaluation at zeta^{3^i mod 2N}.
  const int log_n = GetParam();
  CkksDwtPlan plan(log_n);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> coeffs(plan.n());
  for (double& c : coeffs) c = dist(rng);

  std::vector<Cx<double>> a(plan.n());
  for (std::size_t i = 0; i < plan.n(); ++i) a[i] = {coeffs[i], 0.0};
  plan.forward(std::span<Cx<double>>(a));

  const u64 m = static_cast<u64>(plan.n()) << 1;
  for (const std::size_t i : checked_points(plan.slots(), 14)) {
    u64 pos = 1;  // 3^i mod 2N
    for (std::size_t k = 0; k < i; ++k) pos = (pos * 3) % m;
    const Cx<double> expected = eval_poly_at_zeta_pow(coeffs, plan, pos);
    const Cx<double> got = a[plan.index_map()[i]];
    EXPECT_NEAR(got.re, expected.re, 1e-8);
    EXPECT_NEAR(got.im, expected.im, 1e-8);
    // Conjugate slot.
    const Cx<double> got_conj = a[plan.index_map()[plan.slots() + i]];
    EXPECT_NEAR(got_conj.re, expected.re, 1e-8);
    EXPECT_NEAR(got_conj.im, -expected.im, 1e-8);
  }
}

TEST_P(DwtParamTest, ConjugateSymmetricInputGivesRealCoefficients) {
  // Encoding property: placing (z, conj z) per the index map and running
  // inverse() must give (numerically) real coefficients.
  const int log_n = GetParam();
  CkksDwtPlan plan(log_n);
  auto slots = random_complex(plan.slots(), 21);
  std::vector<Cx<double>> a(plan.n());
  for (std::size_t i = 0; i < plan.slots(); ++i) {
    a[plan.index_map()[i]] = slots[i];
    a[plan.index_map()[plan.slots() + i]] = slots[i].conj();
  }
  plan.inverse(std::span<Cx<double>>(a));
  for (const auto& z : a) {
    EXPECT_NEAR(z.im, 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, DwtParamTest,
                         ::testing::Values(4, 6, 8, 10, 12, 14));

TEST(Dwt, SlotRoundtripThroughEncodingOrder) {
  // slots -> inverse -> forward -> slots is the encode/decode core.
  CkksDwtPlan plan(12);
  auto slots = random_complex(plan.slots(), 31);
  std::vector<Cx<double>> a(plan.n());
  for (std::size_t i = 0; i < plan.slots(); ++i) {
    a[plan.index_map()[i]] = slots[i];
    a[plan.index_map()[plan.slots() + i]] = slots[i].conj();
  }
  plan.inverse(std::span<Cx<double>>(a));
  plan.forward(std::span<Cx<double>>(a));
  for (std::size_t i = 0; i < plan.slots(); ++i) {
    const Cx<double> got = a[plan.index_map()[i]];
    EXPECT_NEAR(got.re, slots[i].re, 1e-9);
    EXPECT_NEAR(got.im, slots[i].im, 1e-9);
  }
}

TEST(Dwt, ZetaPowBasics) {
  CkksDwtPlan plan(8);
  const auto one = plan.zeta_pow(0);
  EXPECT_DOUBLE_EQ(one.re, 1.0);
  const auto minus_one = plan.zeta_pow(plan.n());
  EXPECT_NEAR(minus_one.re, -1.0, 1e-15);
  EXPECT_NEAR(minus_one.im, 0.0, 1e-15);
  const auto i_unit = plan.zeta_pow(plan.n() / 2);
  EXPECT_NEAR(i_unit.re, 0.0, 1e-15);
  EXPECT_NEAR(i_unit.im, 1.0, 1e-15);
}

TEST(Dwt, DoubleKernelsAreBitIdenticalToScalarOnEveryTier) {
  // The double overloads dispatch to the tier's butterflies; the scalar
  // template is the reference. Every size from the smallest plan up covers
  // the short-span stages of both SIMD widths; half the inputs are real,
  // as decode feeds them. Op counts must not depend on the tier either.
  struct ArchGuard {
    ~ArchGuard() {
      simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
    }
  } guard;
  std::vector<simd::KernelArch> tiers{simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) tiers.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable()) {
    tiers.push_back(simd::KernelArch::kAvx512Ifma);
  }
  auto bits = [](const std::vector<Cx<double>>& v) {
    std::vector<u64> out;
    for (const Cx<double>& z : v) {
      out.push_back(std::bit_cast<u64>(z.re));
      out.push_back(std::bit_cast<u64>(z.im));
    }
    return out;
  };
  for (int log_n = 2; log_n <= 16; ++log_n) {
    CkksDwtPlan plan(log_n);
    std::vector<Cx<double>> input = random_complex(plan.n(), 50 + log_n);
    for (std::size_t i = 0; i < plan.n(); i += 2) input[i].im = 0.0;

    std::vector<Cx<double>> want_fwd = input;
    std::vector<Cx<double>> want_inv = input;
    OpCounterScope scalar_ops;
    plan.forward<double>(want_fwd);
    plan.inverse<double>(want_inv);
    const OpCounts want_ops = scalar_ops.delta();
    for (simd::KernelArch arch : tiers) {
      simd::set_kernel_arch_for_testing(arch);
      std::vector<Cx<double>> fwd = input;
      std::vector<Cx<double>> inv = input;
      OpCounterScope ops;
      plan.forward(std::span<Cx<double>>(fwd));
      plan.inverse(std::span<Cx<double>>(inv));
      EXPECT_EQ(bits(fwd), bits(want_fwd))
          << "forward, log_n " << log_n << ", " << simd::kernel_arch_name(arch);
      EXPECT_EQ(bits(inv), bits(want_inv))
          << "inverse, log_n " << log_n << ", " << simd::kernel_arch_name(arch);
      EXPECT_EQ(ops.delta().fft_total(), want_ops.fft_total());
    }
  }
}

TEST(Dwt, ReducedMantissaDegradesGracefully) {
  // Same roundtrip under FP55-like rounding: error grows as mantissa
  // shrinks but the transform stays usable. This is the Fig. 3c mechanism.
  CkksDwtPlan plan(10);
  auto reference = random_complex(plan.n(), 41);
  double prev_err = 0.0;
  for (int mant : {52, 43, 30, 18}) {
    FpPrecision guard(mant);
    std::vector<Cx<Rounded>> a(plan.n());
    for (std::size_t i = 0; i < plan.n(); ++i) {
      a[i] = {Rounded(reference[i].re), Rounded(reference[i].im)};
    }
    plan.forward(std::span<Cx<Rounded>>(a));
    plan.inverse(std::span<Cx<Rounded>>(a));
    double err = 0.0;
    for (std::size_t i = 0; i < plan.n(); ++i) {
      err = std::max(err, std::abs(a[i].re.v - reference[i].re));
      err = std::max(err, std::abs(a[i].im.v - reference[i].im));
    }
    EXPECT_GT(err, prev_err);  // strictly worse with fewer bits
    EXPECT_LT(err, std::ldexp(1.0, -mant + plan.log_n() + 4));
    prev_err = err;
  }
}

}  // namespace
}  // namespace abc::xf
