#include "transform/dwt.hpp"

#include <cmath>
#include <numbers>

#include "common/shared_registry.hpp"
#include "simd/kernels.hpp"

namespace abc::xf {

static_assert(sizeof(Cx<double>) == 2 * sizeof(double),
              "the DWT kernels read Cx<double> arrays as interleaved doubles");

CkksDwtPlan::CkksDwtPlan(int log_n)
    : log_n_(log_n), n_(std::size_t{1} << log_n) {
  ABC_CHECK_ARG(log_n >= 2 && log_n <= 20, "log_n out of range");
  psi_rev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    psi_rev_[i] = zeta_pow(bit_reverse(i, log_n_));
  }
  // Canonical-embedding index map (generator 3 modulo 2N): slot i reads the
  // transform position that evaluates at zeta^{3^i}; the conjugate value
  // zeta^{-3^i} sits at the paired position.
  index_map_.resize(n_);
  const u64 m = static_cast<u64>(n_) << 1;
  u64 pos = 1;
  const std::size_t slot_count = n_ / 2;
  for (std::size_t i = 0; i < slot_count; ++i) {
    const u64 index1 = (pos - 1) >> 1;
    const u64 index2 = (m - pos - 1) >> 1;
    index_map_[i] = bit_reverse(index1, log_n_);
    index_map_[slot_count + i] = bit_reverse(index2, log_n_);
    pos = (pos * 3) & (m - 1);
  }
}

std::shared_ptr<const CkksDwtPlan> CkksDwtPlan::shared(int log_n) {
  static SharedRegistry<int, CkksDwtPlan> registry;
  return registry.get(log_n, [&] {
    return std::make_shared<const CkksDwtPlan>(log_n);
  });
}

void CkksDwtPlan::forward(std::span<Cx<double>> a) const {
  const auto kernel = simd::active_kernels().dwt_forward;
  if (kernel == nullptr) return forward<double>(a);
  ABC_CHECK_ARG(a.size() == n_, "DWT size mismatch");
  kernel(&a[0].re, &psi_rev_[0].re, n_);
  count_butterflies();
}

void CkksDwtPlan::inverse(std::span<Cx<double>> a) const {
  const auto kernel = simd::active_kernels().dwt_inverse;
  if (kernel == nullptr) return inverse<double>(a);
  ABC_CHECK_ARG(a.size() == n_, "DWT size mismatch");
  kernel(&a[0].re, &psi_rev_[0].re, n_);
  count_butterflies();
  op_counts().fft_mul += 2 * n_;
}

Cx<double> CkksDwtPlan::zeta_pow(u64 e) const {
  const double angle = std::numbers::pi * static_cast<double>(e % (2 * n_)) /
                       static_cast<double>(n_);
  return {std::cos(angle), std::sin(angle)};
}

Cx<double> eval_poly_at_zeta_pow(std::span<const double> coeffs,
                                 const CkksDwtPlan& plan, u64 e) {
  const Cx<double> x = plan.zeta_pow(e);
  Cx<double> acc{0.0, 0.0};
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + Cx<double>{coeffs[i], 0.0};
  }
  return acc;
}

}  // namespace abc::xf
