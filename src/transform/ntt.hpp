#pragma once

/// @file ntt.hpp
/// Negacyclic number-theoretic transform over Z_q[X]/(X^N + 1) with merged
/// pre-/post-processing twiddles (paper eqs. 2-3): the nega-cyclic psi
/// factors are folded into the stage twiddles, so no separate pre/post
/// multiplication pass exists — the property the paper's twiddle-factor
/// scheduling exploits to reach the minimal P/2 * log2(N) multiplier count.
///
/// Conventions (Longa-Naehrig / SEAL):
///  * forward(): Cooley-Tukey butterflies, natural-order input,
///    bit-reversed output;
///  * inverse(): Gentleman-Sande butterflies, bit-reversed input,
///    natural-order output, scaled by N^{-1}.
/// Point-wise products of two forward-transformed polynomials followed by
/// inverse() realize negacyclic convolution.
///
/// Execution: forward()/inverse() run the Harvey lazy-reduction kernels
/// from src/simd/ (AVX2 or portable, runtime-dispatched; see
/// simd/ntt_kernels.hpp). The seed's eager-reduction butterflies are kept
/// as forward_eager()/inverse_eager() — the bit-exact reference the lazy
/// kernels are tested and benchmarked against. Twiddles are stored as flat
/// Shoup-pair arrays (value and quotient in separate parallel vectors) so
/// the butterfly inner loops stream both sequentially.
///
/// Storage: two N-word arrays per prime (1 MiB at N = 2^16), the forward
/// twiddles and their quotients. The inverse twiddles are not stored: every
/// inverse kernel, the eager one included, derives them from the forward
/// table's mirrored slot (simd::inverse_twiddle). Contexts obtain their
/// tables through shared(), so one process keeps one table per
/// (prime, degree) however many contexts use it.

#include <memory>
#include <span>
#include <vector>

#include "rns/modulus.hpp"
#include "simd/ntt_kernels.hpp"

namespace abc::xf {

class NttTables {
 public:
  /// Requires q == 1 (mod 2N) with N = 2^log_n.
  NttTables(const rns::Modulus& q, int log_n);

  /// The process's tables for (q, log_n): built on first use and shared by
  /// every caller until the last owner releases them. The registry holds
  /// only weak references, so it keeps no tables alive on its own.
  /// Thread-safe; concurrent first calls build one table.
  static std::shared_ptr<const NttTables> shared(const rns::Modulus& q,
                                                 int log_n);

  const rns::Modulus& modulus() const noexcept { return q_; }
  int log_n() const noexcept { return log_n_; }
  std::size_t n() const noexcept { return n_; }

  u64 psi() const noexcept { return psi_; }          // primitive 2N-th root
  u64 psi_inv() const noexcept { return psi_inv_; }
  u64 n_inv() const noexcept { return n_inv_.operand; }

  /// In-place forward NTT (natural -> bit-reversed), result in [0, q).
  void forward(std::span<u64> a) const;

  /// In-place inverse NTT (bit-reversed -> natural), including the N^{-1}
  /// scaling; result in [0, q).
  void inverse(std::span<u64> a) const;

  /// Seed eager-reduction reference kernels: one canonical reduction per
  /// butterfly. Bit-identical outputs to forward()/inverse(); kept for
  /// parity tests and old-vs-new benchmarking.
  void forward_eager(std::span<u64> a) const;
  void inverse_eager(std::span<u64> a) const;

  /// Stage-twiddle access for the on-the-fly generator model:
  /// psi_rev(i) = psi^{bit_reverse(i, log_n)}.
  u64 psi_rev(std::size_t i) const { return w_.at(i); }

  /// Non-owning kernel view of the tables (simd/ntt_kernels.hpp).
  simd::NttLayout layout() const noexcept {
    return {w_.data(), w_shoup_.data(), q_.value(), n_inv_.operand,
            n_inv_.quotient, n_, log_n_};
  }

 private:
  rns::Modulus q_;
  int log_n_;
  std::size_t n_;
  u64 psi_ = 0;
  u64 psi_inv_ = 0;
  // Flat Shoup-pair twiddle arrays, bit-reversed index order: w_[i] =
  // psi^bit_reverse(i, log_n), w_shoup_[i] = floor(w_[i] * 2^64 / q). The
  // inverse twiddles are derived from these (simd::inverse_twiddle).
  std::vector<u64> w_;
  std::vector<u64> w_shoup_;
  rns::ShoupMul n_inv_;
};

/// Finds a primitive 2N-th root of unity modulo q (q == 1 mod 2N) by a
/// bounded deterministic candidate search; throws if q is not an NTT prime.
u64 find_primitive_2n_root(const rns::Modulus& q, int log_n);

/// Reference negacyclic product c = a * b mod (X^N + 1, q), O(N^2)
/// schoolbook; used by tests to pin down the transform semantics.
std::vector<u64> negacyclic_mult_schoolbook(std::span<const u64> a,
                                            std::span<const u64> b,
                                            const rns::Modulus& q);

}  // namespace abc::xf
