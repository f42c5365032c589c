#pragma once

/// @file dwt.hpp
/// Complex negacyclic discrete weighted transform (DWT): the "FFT" of CKKS
/// encoding/decoding. The butterflies and stage structure are *identical*
/// to the negacyclic NTT in ntt.hpp — only the twiddles change from
/// modular roots psi to complex roots zeta = exp(i*pi/N). This is
/// precisely the structural identity the paper's Reconfigurable Fourier
/// Engine exploits to serve both transforms from one datapath (Sec. III,
/// Fig. 3c).
///
/// The transform is templated on the scalar float type: `double` for exact
/// reference, `Rounded` (softfloat.hpp) for FP55-style reduced-mantissa
/// evaluation (Fig. 3c sweep).
///
/// Slot semantics (canonical embedding): after forward(), the evaluation
/// of the input polynomial at zeta^{3^i mod 2N} sits at position
/// index_map()[i]; decoding reads slots from those positions and encoding
/// writes conjugate-extended slot values into them before inverse().

#include <memory>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "transform/op_counter.hpp"
#include "transform/softfloat.hpp"

namespace abc::xf {

class CkksDwtPlan {
 public:
  /// N = 2^log_n is the polynomial degree; the transform runs on N complex
  /// points and the embedding exposes N/2 usable slots.
  explicit CkksDwtPlan(int log_n);

  /// The process's plan for log_n: built on first use and shared by every
  /// caller until the last owner releases it (1.5 MiB at N = 2^16), the way
  /// NttTables::shared shares the NTT tables. Thread-safe.
  static std::shared_ptr<const CkksDwtPlan> shared(int log_n);

  int log_n() const noexcept { return log_n_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t slots() const noexcept { return n_ / 2; }

  /// zeta^e with zeta = exp(i*pi/N); e taken mod 2N.
  Cx<double> zeta_pow(u64 e) const;

  /// Position map: index_map()[i] (i < slots) holds slot i after forward();
  /// index_map()[slots + i] holds its complex conjugate counterpart.
  std::span<const std::size_t> index_map() const noexcept { return index_map_; }

  /// In-place forward DWT (natural -> bit-reversed), Cooley-Tukey. The
  /// double overload runs the active kernel table's butterflies
  /// (simd/kernels.hpp, simd/dwt_kernels.hpp), bit-identical to this scalar
  /// template, which is the portable tier and the Rounded path.
  void forward(std::span<Cx<double>> a) const;
  template <class F>
  void forward(std::span<Cx<F>> a) const {
    ABC_CHECK_ARG(a.size() == n_, "DWT size mismatch");
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
      t >>= 1;
      for (std::size_t i = 0; i < m; ++i) {
        const Cx<F> w = twiddle<F>(psi_rev_[m + i]);
        const std::size_t j1 = 2 * i * t;
        for (std::size_t j = j1; j < j1 + t; ++j) {
          const Cx<F> u = a[j];
          const Cx<F> v = a[j + t] * w;
          a[j] = u + v;
          a[j + t] = u - v;
        }
      }
    }
    count_butterflies();
  }

  /// In-place inverse DWT (bit-reversed -> natural), Gentleman-Sande,
  /// including the 1/N scaling; dispatched like forward().
  void inverse(std::span<Cx<double>> a) const;
  template <class F>
  void inverse(std::span<Cx<F>> a) const {
    ABC_CHECK_ARG(a.size() == n_, "DWT size mismatch");
    std::size_t t = 1;
    for (std::size_t m = n_ >> 1; m >= 1; m >>= 1) {
      for (std::size_t i = 0; i < m; ++i) {
        // |zeta| = 1, so the conjugate is the inverse twiddle.
        const Cx<F> w = twiddle<F>(psi_rev_[m + i].conj());
        const std::size_t j1 = 2 * i * t;
        for (std::size_t j = j1; j < j1 + t; ++j) {
          const Cx<F> x = a[j];
          const Cx<F> y = a[j + t];
          a[j] = x + y;
          a[j + t] = (x - y) * w;
        }
      }
      t <<= 1;
    }
    const F scale = F(1.0 / static_cast<double>(n_));
    for (Cx<F>& z : a) {
      z.re = z.re * scale;
      z.im = z.im * scale;
    }
    count_butterflies();
    op_counts().fft_mul += 2 * n_;
  }

  /// Stage twiddle in table order, for the on-the-fly generator model:
  /// psi_rev(i) = zeta^{bit_reverse(i, log_n)}.
  Cx<double> psi_rev(std::size_t i) const { return psi_rev_.at(i); }

 private:
  template <class F>
  Cx<F> twiddle(const Cx<double>& w) const {
    // One rounding per component models the FP55 twiddle ROM / generator.
    return {F(w.re), F(w.im)};
  }

  void count_butterflies() const {
    // Butterfly = 1 complex mul (4 FP mul + 2 FP add) + 2 complex add/sub.
    const u64 bf = (n_ / 2) * static_cast<u64>(log_n_);
    op_counts().fft_mul += 4 * bf;
    op_counts().fft_add += 6 * bf;
  }

  int log_n_;
  std::size_t n_;
  std::vector<Cx<double>> psi_rev_;  // the inverse reads conj(psi_rev_)
  std::vector<std::size_t> index_map_;
};

/// O(N) reference evaluation of a real-coefficient polynomial at zeta^e
/// (Horner); pins down the canonical-embedding semantics in tests.
Cx<double> eval_poly_at_zeta_pow(std::span<const double> coeffs,
                                 const CkksDwtPlan& plan, u64 e);

}  // namespace abc::xf
