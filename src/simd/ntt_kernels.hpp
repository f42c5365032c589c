#pragma once

/// @file ntt_kernels.hpp
/// Harvey lazy-reduction NTT kernels (portable, AVX2 and AVX-512/IFMA, one
/// call through the kernel table kernels_for(q) picks, kernels.hpp).
///
/// Algorithm (Harvey, "Faster arithmetic for number-theoretic transforms"):
/// butterflies keep coefficients *lazily* reduced instead of canonical —
///
///   * forward (Cooley-Tukey, natural -> bit-reversed): inputs < q, every
///     intermediate value stays in [0, 4q); one correction pass at the end
///     maps the result back to [0, q);
///   * inverse (Gentleman-Sande, bit-reversed -> natural): intermediates
///     stay in [0, 2q); the final N^{-1} scaling fully reduces.
///
/// The twiddle multiplication is a lazy Shoup product
///     r = x*w - floor(x*w_shoup / 2^64)*q   in [0, 2q)
/// which is branch-free and valid for ANY 64-bit x as long as w < q (see
/// rns::ShoupMul::mul_lazy). Laziness needs 4q < 2^64, i.e. q < 2^62 —
/// exactly the Modulus bound.
///
/// Outputs are bit-identical to the eager reference kernels
/// (NttTables::forward_eager / inverse_eager): both produce the canonical
/// representative of the same transform.

#include <cstddef>

#include "common/types.hpp"

namespace abc::simd {

/// Non-owning view of one prime's NTT tables in the flat streaming layout:
/// two parallel arrays indexed by bit-reversed twiddle index (entry i holds
/// psi^bit_reverse(i) and its Shoup quotient). The inverse transform has no
/// tables of its own; it derives its twiddles from these (inverse_twiddle).
struct NttLayout {
  const u64* w = nullptr;         // forward twiddles, 0 < w[i] < q
  const u64* w_shoup = nullptr;   // floor(w[i] * 2^64 / q)
  u64 q = 0;                      // prime modulus, q < 2^62
  u64 n_inv = 0;                  // N^{-1} mod q
  u64 n_inv_shoup = 0;            // Shoup quotient of n_inv
  std::size_t n = 0;              // transform length, power of two
  int log_n = 0;
};

/// A twiddle and its 64-bit Shoup quotient floor(w * 2^64 / q).
struct ShoupTwiddle {
  u64 w;
  u64 w_shoup;
};

/// Inverse twiddle i of the stage with m groups (table slot m + i), that is
/// psi^{-bit_reverse(m + i)}, read from the forward table's mirrored slot
/// k = 2m - 1 - i. The bit reversals of m + i and k sum to N, so
/// psi^{rev(k)} = -psi^{-rev(m + i)} and the twiddle is q - w[k]. Its
/// quotient is ~w_shoup[k]: q is an odd prime and 0 < w[k] < q, so
/// w[k] * 2^64 / q is never an integer and
/// floor((q - w[k]) * 2^64 / q) = 2^64 - 1 - floor(w[k] * 2^64 / q).
/// The same argument in base 2^52 makes ~w_shoup[k] >> 12 the exact 52-bit
/// quotient the IFMA kernels use.
inline ShoupTwiddle inverse_twiddle(const NttLayout& L, std::size_t m,
                                    std::size_t i) noexcept {
  const std::size_t k = 2 * m - 1 - i;
  return {L.q - L.w[k], ~L.w_shoup[k]};
}

/// The last inverse stage's twiddle (one group, gap n/2) times N^{-1}, with
/// its 64-bit Shoup quotient. The SIMD tiers fold the N^{-1} scaling into
/// that stage: x' = (x + y) N^{-1} and y' = (x - y) w N^{-1}, each fully
/// reduced, are the canonical values a separate scaling pass produces.
inline ShoupTwiddle scaled_last_inverse_twiddle(const NttLayout& L) noexcept {
  const ShoupTwiddle tw = inverse_twiddle(L, 1, 0);
  u64 w = tw.w * L.n_inv - mul_hi(tw.w, L.n_inv_shoup) * L.q;  // < 2q
  if (w >= L.q) w -= L.q;
  return {w, static_cast<u64>((static_cast<u128>(w) << 64) / L.q)};
}

/// In-place forward NTT, natural -> bit-reversed order, result in [0, q).
/// Runs on kernels_for(L.q).
void ntt_forward_lazy(const NttLayout& L, u64* a);

/// In-place inverse NTT, bit-reversed -> natural order, including the
/// N^{-1} scaling; result in [0, q).
void ntt_inverse_lazy(const NttLayout& L, u64* a);

// -- portable kernels (always available; the reference the SIMD tiers are
//    tested against, and the escape-hatch path) ------------------------------

void ntt_forward_lazy_portable(const NttLayout& L, u64* a);
void ntt_inverse_lazy_portable(const NttLayout& L, u64* a);

/// Runs forward stages [stage_begin, stage_end) (stage s merges blocks of
/// size n >> s; stage 0 is the first) WITHOUT the final correction pass.
/// After k stages every value is < 4q. Building block of the full portable
/// kernel, exposed so tests can verify the lazy-bound invariant stage by
/// stage.
void ntt_forward_lazy_stages_portable(const NttLayout& L, u64* a,
                                      int stage_begin, int stage_end);

/// Inverse counterpart (stage s has butterfly gap 1 << s) without the final
/// N^{-1} scaling; every value stays < 2q.
void ntt_inverse_lazy_stages_portable(const NttLayout& L, u64* a,
                                      int stage_begin, int stage_end);

/// The forward correction pass: maps [0, 4q) values to [0, q).
void reduce_from_4q_portable(u64* a, std::size_t n, u64 q);

}  // namespace abc::simd
