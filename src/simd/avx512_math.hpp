#pragma once

/// @file avx512_math.hpp
/// Shared AVX-512 building blocks for the kernel TUs compiled with
/// -mavx512f -mavx512dq -mavx512ifma. Unlike AVX2, this tier has native
/// 64-bit lane multiplies (vpmullq), native unsigned 64-bit compares
/// (mask registers), and the IFMA 52-bit multiply-adds vpmadd52luq /
/// vpmadd52huq, which take two 52-bit operands (upper 12 bits of each lane
/// are IGNORED — callers must guarantee operands < 2^52) and add the low /
/// high 52 bits of the 104-bit product onto a 64-bit accumulator.
///
/// The modular-multiply helpers here run the same algorithms as the
/// portable and AVX2 tiers but in base 2^52 instead of 2^64, with the
/// 52-bit constants derived from the 64-bit ones by `>> 12`
/// (floor(floor(x / 2^12) / 1) == floor(x * 2^52 / 2^64) exactly), so no
/// extra precomputation or table storage exists for this tier:
///
///   * shoup52_mul_lazy: r = x*w - floor(x*w_shoup52 / 2^52)*q, in [0, 2q).
///     Contract: w < q, w_shoup52 = floor(w * 2^52 / q), and x < 2^52 —
///     the base-52 counterpart of Harvey's "any 64-bit x" bound, which is
///     why the IFMA tier requires lazy 4q-representatives to fit 52 bits
///     (prime bit-count <= 50, kIfmaMaxPrimeBits in kernels.hpp).
///   * barrett52_mul: the shifted-Barrett dyadic product of
///     dyadic_kernels.hpp with qhat = floor((z >> shift) * ratio52 / 2^52),
///     ratio52 = ratio >> 12; r < 3q before the two corrections.
///
/// Only include from translation units compiled with the AVX-512 flags.

#include <immintrin.h>

#include "common/types.hpp"

namespace abc::simd::avx512 {

inline __m512i splat(u64 v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

inline __m512i load(const u64* p) noexcept {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void store(u64* p, __m512i v) noexcept {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

/// Low 64 bits of the lane-wise 64x64 product (vpmullq, AVX-512DQ).
inline __m512i mul_lo64(__m512i x, __m512i y) noexcept {
  return _mm512_mullo_epi64(x, y);
}

/// v - (v >= bound ? bound : 0), unsigned lanes (native mask compare).
inline __m512i cond_sub(__m512i v, __m512i bound) noexcept {
  const __mmask8 ge = _mm512_cmpge_epu64_mask(v, bound);
  return _mm512_mask_sub_epi64(v, ge, v, bound);
}

/// acc + lo52(x * y); x, y treated as 52-bit operands (upper bits ignored).
inline __m512i madd52lo(__m512i acc, __m512i x, __m512i y) noexcept {
  return _mm512_madd52lo_epu64(acc, x, y);
}

/// acc + floor(x * y / 2^52); x, y treated as 52-bit operands.
inline __m512i madd52hi(__m512i acc, __m512i x, __m512i y) noexcept {
  return _mm512_madd52hi_epu64(acc, x, y);
}

/// Lazy Shoup product per lane in base 2^52 (see file header for the
/// contract): x*w - floor(x*w_shoup52/2^52)*q, result < 2q. The lazy
/// representative may differ from the base-2^64 tiers' by q; all kernels
/// canonicalize before storing results, so outputs stay bit-identical.
/// The result is below 2q < 2^52, so only its low 52 bits are computed:
/// lo52(x*w) + lo52(t*(2^52 - q)) mod 2^52, three vpmadd52 and an AND
/// where two vpmullq (three uops each) would do the same work.
inline __m512i shoup52_mul_lazy(__m512i x, __m512i w, __m512i w_shoup52,
                                __m512i q) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);
  const __m512i neg_q = _mm512_sub_epi64(_mm512_set1_epi64(1LL << 52), q);
  const __m512i t = madd52hi(zero, x, w_shoup52);
  return _mm512_and_si512(madd52lo(madd52lo(zero, x, w), t, neg_q), mask52);
}

/// Canonical dyadic product per lane via the 52-bit shifted-Barrett
/// constant: inputs a, b < q < 2^50; ratio52 = ratio >> 12;
/// shift = bit_count(q) - 1. qhat lands in [Q-2, Q], so r < 3q and two
/// conditional subtractions reach the canonical representative — the same
/// correction count as the portable/AVX2 pipeline, hence bit-identical.
inline __m512i barrett52_mul(__m512i a, __m512i b, __m512i vq, __m512i v2q,
                             __m512i ratio52, int shift) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i z_lo = madd52lo(zero, a, b);
  const __m512i z_hi = madd52hi(zero, a, b);
  // z >> shift, assembled from the 52-bit halves; < 2q < 2^51. The shifts
  // are spelled as their full-mask forms: GCC 12's unmasked ones pass an
  // "undefined" merge source that trips -Wmaybe-uninitialized. The emitted
  // instructions are the same.
  const __m512i zh = _mm512_or_si512(
      _mm512_mask_slli_epi64(z_hi, 0xFF, z_hi, 52 - shift),
      _mm512_mask_srli_epi64(z_lo, 0xFF, z_lo, shift));
  const __m512i qhat = madd52hi(zero, zh, ratio52);
  __m512i r = _mm512_sub_epi64(mul_lo64(a, b), mul_lo64(qhat, vq));  // < 3q
  r = cond_sub(r, v2q);
  return cond_sub(r, vq);
}

}  // namespace abc::simd::avx512
