/// The AVX-512/IFMA kernel tier: eight-lane Harvey NTT butterflies, the
/// batched dyadic ops on vpmadd52, sixteen-lane ChaCha20, and the tier's
/// Kernels table (kernels.hpp). Compiled with -mavx512f -mavx512dq
/// -mavx512ifma when the toolchain accepts them; otherwise the TU holds no
/// kernels and avx512ifma_kernels() returns nullptr, so the tier is never
/// selected. There is no 512-bit DWT (dwt_kernels.hpp) or signed lift
/// (sampler_kernels.hpp): the table carries the AVX2 bodies.
///
/// The multiplying kernels and the NTT need every multiplier input below
/// 2^52: lazy values reach 4q, so they hold for q < 2^kIfmaMaxPrimeBits
/// only, and kernels_for() routes wider primes to the AVX2 table. The
/// multiply-free kernels (add/sub/negate) hold at any prime width.
///
/// NTT: the AVX2 tier's stage structure with eight butterflies per
/// iteration and the base-2^52 lazy Shoup product (avx512_math.hpp): the
/// 52-bit twiddle quotients are L.w_shoup[i] >> 12 (forward) and the
/// inverse twiddle's ~L.w_shoup[k] >> 12, derived in-register — the
/// NttLayout carries no extra tables for this tier. The stages with t >= 8
/// splat one twiddle per group. The three narrowest stages (t = 4, 2, 1:
/// the last three forward, the first three inverse) run as one register
/// tail: each sixteen-word block is loaded once into two registers,
/// vpermt2q regroups it between stages, and each stage's 2, 4 or 8 twiddles
/// arrive as one vector load spread by vpermq. The forward tail also does
/// the [0, 4q) -> [0, q) correction; the inverse folds its N^{-1} scaling
/// into its last stage (scaled_last_inverse_twiddle). Only n < 16 runs the
/// portable code.
///
/// Dyadic ops: see dyadic_kernels.hpp for the algorithms.
///
/// ChaCha20 (see chacha_kernels.hpp), AVX-512F only: sixteen blocks per
/// call, one per 32-bit lane: the sixteen state words are sixteen __m512i,
/// the counter word carries counter+0..15, every rotation is one vprold.
/// The output transpose is a 4x4 word transpose inside each 128-bit lane
/// (unpack epi32/epi64) followed by a 4x4 transpose of 128-bit lanes (two
/// rounds of shuffle_i32x4) into block order.
///
/// Sampling and RNS expansion (see sampler_kernels.hpp): the uniform
/// reject-and-reduce on a double quotient estimate, vpmullq and
/// vpcompressq; the Gaussian CDT count as one masked add per entry over
/// eight samples.

#include "simd/chacha_kernels.hpp"
#include "simd/dwt_kernels.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/kernels.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/sampler_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include "simd/avx512_math.hpp"

namespace abc::simd {
namespace {

using avx512::barrett52_mul;
using avx512::cond_sub;
using avx512::load;
using avx512::shoup52_mul_lazy;
using avx512::splat;
using avx512::store;

// -- NTT ---------------------------------------------------------------------

// Full-mask spellings: GCC 12's unmasked permute and shift intrinsics pass an
// "undefined" merge source that trips -Wmaybe-uninitialized. The emitted
// instructions are the same.
constexpr __mmask8 kAll64 = 0xFF;

/// Lane i of the result is lane idx[i] of v (vpermq).
inline __m512i permute(__m512i v, __m512i idx) noexcept {
  return _mm512_mask_permutexvar_epi64(v, kAll64, idx, v);
}

/// Lane i of the result is lane idx[i] of the sixteen lanes lo:hi (vpermt2q).
inline __m512i permute2(__m512i lo, __m512i idx, __m512i hi) noexcept {
  return _mm512_permutex2var_epi64(lo, idx, hi);
}

inline __m512i lanes(long long l0, long long l1, long long l2, long long l3,
                     long long l4, long long l5, long long l6,
                     long long l7) noexcept {
  return _mm512_setr_epi64(l0, l1, l2, l3, l4, l5, l6, l7);
}

/// Harvey CT butterfly on eight lanes: x, y < 4q in; outputs < 4q.
inline void ct_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i wsh52,
                         __m512i vq, __m512i v2q) noexcept {
  const __m512i u = cond_sub(x, v2q);                     // < 2q
  const __m512i v = shoup52_mul_lazy(y, w, wsh52, vq);    // < 2q
  x = _mm512_add_epi64(u, v);                             // < 4q
  y = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);      // < 4q
}

/// Harvey GS butterfly on eight lanes: x, y < 2q in; outputs < 2q.
inline void gs_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i wsh52,
                         __m512i vq, __m512i v2q) noexcept {
  const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(x, v2q), y);  // < 4q
  x = cond_sub(_mm512_add_epi64(x, y), v2q);                        // < 2q
  y = shoup52_mul_lazy(d, w, wsh52, vq);                            // < 2q
}

/// The last inverse stage with the N^{-1} scaling folded in (see
/// scaled_last_inverse_twiddle): x, y < 2q in; outputs in [0, q).
inline void gs_butterfly_scaled(__m512i& x, __m512i& y,
                                const ShoupTwiddle& last, const NttLayout& L,
                                __m512i vq, __m512i v2q) noexcept {
  const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(x, v2q), y);  // < 4q
  const __m512i sum = _mm512_add_epi64(x, y);                       // < 4q
  x = cond_sub(shoup52_mul_lazy(sum, splat(L.n_inv),
                                splat(L.n_inv_shoup >> 12), vq),
               vq);
  y = cond_sub(shoup52_mul_lazy(d, splat(last.w), splat(last.w_shoup >> 12),
                                vq),
               vq);
}

/// Twiddles of one stage for the eight lanes of a tail block: loads the
/// @p mask words at w/w_shoup and spreads them over the lanes with @p idx.
/// Inverse stages take the mirrored slots (inverse_twiddle): the twiddle is
/// q - w[k] and its quotient ~w_shoup[k].
struct TailTwiddles {
  __m512i w;
  __m512i wsh52;
};

inline TailTwiddles tail_twiddles(const u64* w, const u64* w_shoup,
                                  __mmask8 mask, __m512i idx) noexcept {
  const __m512i sh = permute(_mm512_maskz_loadu_epi64(mask, w_shoup), idx);
  return {permute(_mm512_maskz_loadu_epi64(mask, w), idx),
          _mm512_mask_srli_epi64(sh, kAll64, sh, 12)};
}

/// Eight consecutive twiddles, one per lane, need no spread.
inline TailTwiddles tail_twiddles8(const u64* w, const u64* w_shoup) noexcept {
  const __m512i sh = load(w_shoup);
  return {load(w), _mm512_mask_srli_epi64(sh, kAll64, sh, 12)};
}

inline TailTwiddles inverse_tail_twiddles(const u64* w, const u64* w_shoup,
                                          __mmask8 mask, __m512i idx,
                                          __m512i vq) noexcept {
  const TailTwiddles fwd = tail_twiddles(w, w_shoup, mask, idx);
  // ~w_shoup >> 12 == (w_shoup >> 12) ^ (2^52 - 1).
  return {_mm512_sub_epi64(vq, fwd.w),
          _mm512_xor_si512(fwd.wsh52, splat((u64{1} << 52) - 1))};
}

// Register-tail lane maps. A tail block is sixteen words b0..b15 held in two
// registers; each stage puts its butterflies' x inputs in one register and
// the y inputs, lane-aligned, in the other. With lo:hi = b0..b15:
//   t = 4: x = b0-3,b8-11               y = b4-7,b12-15
//   t = 2: x = b0,1,4,5,8,9,12,13       y = b2,3,6,7,10,11,14,15
//   t = 1: x = b0,2,4,..,14             y = b1,3,5,..,15
// Each map is a pair of vpermt2q index vectors over the sixteen lanes of its
// source registers: half_* takes lo:hi to the t = 4 layout and back, quad_*
// t = 4 to t = 2 and back, pair_* t = 2 to t = 1 and back; zip_* takes
// t = 1 to lo:hi and unzip_* lo:hi to t = 1.
struct TailMaps {
  __m512i half_x = lanes(0, 1, 2, 3, 8, 9, 10, 11);
  __m512i half_y = lanes(4, 5, 6, 7, 12, 13, 14, 15);
  __m512i quad_x = lanes(0, 1, 8, 9, 4, 5, 12, 13);
  __m512i quad_y = lanes(2, 3, 10, 11, 6, 7, 14, 15);
  __m512i pair_x = lanes(0, 8, 2, 10, 4, 12, 6, 14);
  __m512i pair_y = lanes(1, 9, 3, 11, 5, 13, 7, 15);
  __m512i zip_lo = lanes(0, 8, 1, 9, 2, 10, 3, 11);
  __m512i zip_hi = lanes(4, 12, 5, 13, 6, 14, 7, 15);
  __m512i unzip_x = lanes(0, 2, 4, 6, 8, 10, 12, 14);
  __m512i unzip_y = lanes(1, 3, 5, 7, 9, 11, 13, 15);
};

/// The forward stages t = 4, 2, 1 and the [0, 4q) -> [0, q) correction in
/// one pass over sixteen-word blocks (n >= 16). Block b's twiddles are the
/// 2, 4 and 8 consecutive slots from n/8 + 2b, n/4 + 4b and n/2 + 8b.
void ntt_forward_tail_avx512(const NttLayout& L, u64* a) {
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  const TailMaps M;
  const __m512i spread2 = lanes(0, 0, 0, 0, 1, 1, 1, 1);
  const __m512i spread4 = lanes(0, 0, 1, 1, 2, 2, 3, 3);
  const std::size_t n = L.n;
  for (std::size_t b = 0; b < n / 16; ++b) {
    u64* p = a + 16 * b;
    const __m512i lo = load(p);
    const __m512i hi = load(p + 8);
    __m512i x = permute2(lo, M.half_x, hi);
    __m512i y = permute2(lo, M.half_y, hi);
    TailTwiddles tw = tail_twiddles(L.w + n / 8 + 2 * b,
                                    L.w_shoup + n / 8 + 2 * b, 0x03, spread2);
    ct_butterfly(x, y, tw.w, tw.wsh52, vq, v2q);
    __m512i x2 = permute2(x, M.quad_x, y);
    __m512i y2 = permute2(x, M.quad_y, y);
    tw = tail_twiddles(L.w + n / 4 + 4 * b, L.w_shoup + n / 4 + 4 * b, 0x0F,
                       spread4);
    ct_butterfly(x2, y2, tw.w, tw.wsh52, vq, v2q);
    x = permute2(x2, M.pair_x, y2);
    y = permute2(x2, M.pair_y, y2);
    tw = tail_twiddles8(L.w + n / 2 + 8 * b, L.w_shoup + n / 2 + 8 * b);
    ct_butterfly(x, y, tw.w, tw.wsh52, vq, v2q);
    x = cond_sub(cond_sub(x, v2q), vq);
    y = cond_sub(cond_sub(y, v2q), vq);
    store(p, permute2(x, M.zip_lo, y));
    store(p + 8, permute2(x, M.zip_hi, y));
  }
}

/// The inverse stages t = 1, 2, 4 in one pass over sixteen-word blocks
/// (n >= 16). Block b's twiddles mirror the forward tail's: the 8, 4 and 2
/// slots ending at n - 1 - 8b, n/2 - 1 - 4b and n/4 - 1 - 2b, reversed.
void ntt_inverse_tail_avx512(const NttLayout& L, u64* a) {
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  const TailMaps M;
  const __m512i reverse8 = lanes(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i reverse4 = lanes(3, 3, 2, 2, 1, 1, 0, 0);
  const __m512i reverse2 = lanes(1, 1, 1, 1, 0, 0, 0, 0);
  const std::size_t n = L.n;
  for (std::size_t b = 0; b < n / 16; ++b) {
    u64* p = a + 16 * b;
    const __m512i lo = load(p);
    const __m512i hi = load(p + 8);
    __m512i x = permute2(lo, M.unzip_x, hi);
    __m512i y = permute2(lo, M.unzip_y, hi);
    std::size_t k = n - 8 - 8 * b;
    TailTwiddles tw = inverse_tail_twiddles(L.w + k, L.w_shoup + k, 0xFF,
                                            reverse8, vq);
    gs_butterfly(x, y, tw.w, tw.wsh52, vq, v2q);
    __m512i x2 = permute2(x, M.pair_x, y);
    __m512i y2 = permute2(x, M.pair_y, y);
    k = n / 2 - 4 - 4 * b;
    tw = inverse_tail_twiddles(L.w + k, L.w_shoup + k, 0x0F, reverse4, vq);
    gs_butterfly(x2, y2, tw.w, tw.wsh52, vq, v2q);
    x = permute2(x2, M.quad_x, y2);
    y = permute2(x2, M.quad_y, y2);
    k = n / 4 - 2 - 2 * b;
    tw = inverse_tail_twiddles(L.w + k, L.w_shoup + k, 0x03, reverse2, vq);
    gs_butterfly(x, y, tw.w, tw.wsh52, vq, v2q);
    store(p, permute2(x, M.half_x, y));
    store(p + 8, permute2(x, M.half_y, y));
  }
}

void ntt_forward_lazy_avx512(const NttLayout& L, u64* a) {
  if (L.n < 16) {
    ntt_forward_lazy_portable(L, a);
    return;
  }
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  for (int s = 0; s < L.log_n - 3; ++s) {  // t >= 8
    const std::size_t m = std::size_t{1} << s;
    const std::size_t t = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const __m512i w = splat(L.w[m + i]);
      const __m512i wsh52 = splat(L.w_shoup[m + i] >> 12);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i vx = load(x + j);
        __m512i vy = load(y + j);
        ct_butterfly(vx, vy, w, wsh52, vq, v2q);
        store(x + j, vx);
        store(y + j, vy);
      }
    }
  }
  ntt_forward_tail_avx512(L, a);
}

void ntt_inverse_lazy_avx512(const NttLayout& L, u64* a) {
  if (L.n < 16) {
    ntt_inverse_lazy_portable(L, a);
    return;
  }
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  ntt_inverse_tail_avx512(L, a);
  for (int s = 3; s < L.log_n - 1; ++s) {  // t >= 8, all but the last
    const std::size_t t = std::size_t{1} << s;
    const std::size_t m = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const ShoupTwiddle tw = inverse_twiddle(L, m, i);
      const __m512i w = splat(tw.w);
      const __m512i wsh52 = splat(tw.w_shoup >> 12);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i vx = load(x + j);
        __m512i vy = load(y + j);
        gs_butterfly(vx, vy, w, wsh52, vq, v2q);
        store(x + j, vx);
        store(y + j, vy);
      }
    }
  }
  // The last stage (one group, t = n/2) takes the N^{-1} scaling.
  const ShoupTwiddle last = scaled_last_inverse_twiddle(L);
  u64* x = a;
  u64* y = a + L.n / 2;
  for (std::size_t j = 0; j < L.n / 2; j += 8) {
    __m512i vx = load(x + j);
    __m512i vy = load(y + j);
    gs_butterfly_scaled(vx, vy, last, L, vq, v2q);
    store(x + j, vx);
    store(y + j, vy);
  }
}

// -- dyadic ops --------------------------------------------------------------

void dyadic_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  const __m512i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    store(dst + j,
          cond_sub(_mm512_add_epi64(load(dst + j), load(src + j)), vq));
  }
  if (j < n) dyadic_add_portable(m, dst + j, src + j, n - j);
}

void dyadic_sub_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  const __m512i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i d = load(dst + j);
    const __m512i s = load(src + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(d, s);
    const __m512i diff = _mm512_sub_epi64(d, s);
    store(dst + j, _mm512_mask_add_epi64(diff, borrow, diff, vq));
  }
  if (j < n) dyadic_sub_portable(m, dst + j, src + j, n - j);
}

void dyadic_mul_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  const __m512i vq = splat(m.q);
  const __m512i v2q = splat(m.two_q);
  const __m512i ratio52 = splat(m.ratio52);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    store(dst + j, barrett52_mul(load(dst + j), load(src + j), vq, v2q,
                                 ratio52, m.shift));
  }
  if (j < n) dyadic_mul_portable(m, dst + j, src + j, n - j);
}

void dyadic_negate_avx512(const DyadicModulus& m, u64* dst, std::size_t n) {
  const __m512i vq = splat(m.q);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i v = load(dst + j);
    const __mmask8 nz = _mm512_cmpneq_epu64_mask(v, zero);
    store(dst + j, _mm512_maskz_sub_epi64(nz, vq, v));
  }
  if (j < n) dyadic_negate_portable(m, dst + j, n - j);
}

void dyadic_mul_scalar_avx512(const DyadicModulus& m, u64* dst, std::size_t n,
                              u64 s, u64 s_shoup) {
  const __m512i vq = splat(m.q);
  const __m512i vs = splat(s);
  // Exact: floor(s_shoup / 2^12) == floor(s * 2^52 / q).
  const __m512i vsh52 = splat(s_shoup >> 12);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i r = shoup52_mul_lazy(load(dst + j), vs, vsh52, vq);
    store(dst + j, cond_sub(r, vq));
  }
  if (j < n) dyadic_mul_scalar_portable(m, dst + j, n - j, s, s_shoup);
}

// Kept scalar on purpose: the vectorizer would turn this into
// vpgatherqq, whose per-element cost exceeds two scalar loads per cycle
// once the indexed array spills L1.
__attribute__((optimize("no-tree-vectorize"))) void stage_permuted(
    u64* tmp, const u64* digit, const u32* perm, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) tmp[j] = digit[perm[j]];
}

void dyadic_fma_accumulate_avx512(const DyadicModulus& m, u64* acc0, u64* acc1,
                                  const u64* digit, const u64* b, const u64* a,
                                  const u32* perm, std::size_t n) {
  // Block-staged: a scalar gather into an L1-resident block beats the
  // hardware gather once the digit array spills L1, and the interleaved
  // inner loop then loads each staged digit vector once and feeds both
  // accumulations in a single pass over the accumulator/key streams.
  const __m512i vq = splat(m.q);
  const __m512i v2q = splat(m.two_q);
  const __m512i ratio52 = splat(m.ratio52);
  constexpr std::size_t kBlock = 2048;
  alignas(64) u64 tmp[kBlock];
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t len = j0 + kBlock <= n ? kBlock : n - j0;
    const u64* d = digit + j0;
    if (perm != nullptr) {
      stage_permuted(tmp, digit, perm + j0, len);
      d = tmp;
    }
    std::size_t j = 0;
    for (; j + 8 <= len; j += 8) {
      const __m512i vd = load(d + j);
      const __m512i p0 =
          barrett52_mul(vd, load(b + j0 + j), vq, v2q, ratio52, m.shift);
      store(acc0 + j0 + j,
            cond_sub(_mm512_add_epi64(load(acc0 + j0 + j), p0), vq));
      const __m512i p1 =
          barrett52_mul(vd, load(a + j0 + j), vq, v2q, ratio52, m.shift);
      store(acc1 + j0 + j,
            cond_sub(_mm512_add_epi64(load(acc1 + j0 + j), p1), vq));
    }
    if (j < len) {
      dyadic_fma_into_portable(m, acc0 + j0 + j, acc0 + j0 + j, d + j,
                               b + j0 + j, len - j);
      dyadic_fma_into_portable(m, acc1 + j0 + j, acc1 + j0 + j, d + j,
                               a + j0 + j, len - j);
    }
  }
}

void dyadic_sub_mul_scalar_avx512(const DyadicModulus& m, u64* dst,
                                  const u64* src, std::size_t n, u64 s,
                                  u64 s_shoup) {
  const __m512i vq = splat(m.q);
  const __m512i vs = splat(s);
  const __m512i vsh52 = splat(s_shoup >> 12);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i d = load(dst + j);
    const __m512i v = load(src + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(d, v);
    const __m512i diff = _mm512_sub_epi64(d, v);
    const __m512i t = _mm512_mask_add_epi64(diff, borrow, diff, vq);
    store(dst + j, cond_sub(shoup52_mul_lazy(t, vs, vsh52, vq), vq));
  }
  if (j < n)
    dyadic_sub_mul_scalar_portable(m, dst + j, src + j, n - j, s, s_shoup);
}

void dyadic_fma_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n) {
  const __m512i vq = splat(m.q);
  const __m512i v2q = splat(m.two_q);
  const __m512i ratio52 = splat(m.ratio52);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i p =
        barrett52_mul(load(a + j), load(b + j), vq, v2q, ratio52, m.shift);
    store(out + j, cond_sub(_mm512_add_epi64(load(base + j), p), vq));
  }
  if (j < n)
    dyadic_fma_into_portable(m, out + j, base + j, a + j, b + j, n - j);
}

void dyadic_fms_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n) {
  const __m512i vq = splat(m.q);
  const __m512i v2q = splat(m.two_q);
  const __m512i ratio52 = splat(m.ratio52);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i p =
        barrett52_mul(load(a + j), load(b + j), vq, v2q, ratio52, m.shift);
    const __m512i s = load(base + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(s, p);
    const __m512i diff = _mm512_sub_epi64(s, p);
    store(out + j, _mm512_mask_add_epi64(diff, borrow, diff, vq));
  }
  if (j < n)
    dyadic_fms_into_portable(m, out + j, base + j, a + j, b + j, n - j);
}

// -- ChaCha20 ----------------------------------------------------------------

// The lane ops below are spelled as their full-mask forms: GCC 12's
// unmasked intrinsics pass an "undefined" merge source that trips
// -Wuninitialized. The emitted instructions are the same.
constexpr __mmask16 kAll32 = 0xFFFF;

template <int R>
inline __m512i rotl(__m512i x) noexcept {  // vprold
  return _mm512_mask_rol_epi32(x, kAll32, x, R);
}
inline __m512i unpacklo32(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpacklo_epi32(a, kAll32, a, b);
}
inline __m512i unpackhi32(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpackhi_epi32(a, kAll32, a, b);
}
inline __m512i unpacklo64(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpacklo_epi64(a, kAll64, a, b);
}
inline __m512i unpackhi64(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpackhi_epi64(a, kAll64, a, b);
}
template <int Imm>
inline __m512i shuffle128(__m512i a, __m512i b) noexcept {
  return _mm512_mask_shuffle_i32x4(a, kAll32, a, b, Imm);
}

inline void quarter_round(__m512i& a, __m512i& b, __m512i& c,
                          __m512i& d) noexcept {
  a = _mm512_add_epi32(a, b); d = rotl<16>(_mm512_xor_si512(d, a));
  c = _mm512_add_epi32(c, d); b = rotl<12>(_mm512_xor_si512(b, c));
  a = _mm512_add_epi32(a, b); d = rotl<8>(_mm512_xor_si512(d, a));
  c = _mm512_add_epi32(c, d); b = rotl<7>(_mm512_xor_si512(b, c));
}

/// 4x4 word transpose inside each 128-bit lane: on return r[m]'s lane k
/// holds words (x0..x3)[4k+m], i.e. four consecutive words of block 4k+m.
inline void transpose4(const __m512i x0, const __m512i x1, const __m512i x2,
                       const __m512i x3, __m512i r[4]) noexcept {
  const __m512i t0 = unpacklo32(x0, x1);
  const __m512i t1 = unpackhi32(x0, x1);
  const __m512i t2 = unpacklo32(x2, x3);
  const __m512i t3 = unpackhi32(x2, x3);
  r[0] = unpacklo64(t0, t2);
  r[1] = unpackhi64(t0, t2);
  r[2] = unpacklo64(t1, t3);
  r[3] = unpackhi64(t1, t3);
}

inline __m512i splat32(u32 w) noexcept {
  return _mm512_set1_epi32(static_cast<int>(w));
}

inline void store(u8* p, __m512i v) noexcept {
  _mm512_storeu_si512(p, v);
}

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out) noexcept {
  // Lane i runs block counter + i; every other word is shared.
  __m512i state[16];
  for (int i = 0; i < 4; ++i) state[i] = splat32(kChachaSigma[i]);
  for (int i = 0; i < 8; ++i) state[4 + i] = splat32(key[i]);
  state[12] = _mm512_add_epi32(
      splat32(counter), _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15));
  for (int i = 0; i < 3; ++i) state[13 + i] = splat32(nonce[i]);
  __m512i x[16];
  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm512_add_epi32(x[i], state[i]);

  // a/b/c/d[m] lane k = words 0-3 / 4-7 / 8-11 / 12-15 of block 4k+m.
  __m512i a[4], b[4], c[4], d[4];
  transpose4(x[0], x[1], x[2], x[3], a);
  transpose4(x[4], x[5], x[6], x[7], b);
  transpose4(x[8], x[9], x[10], x[11], c);
  transpose4(x[12], x[13], x[14], x[15], d);
  for (int m = 0; m < 4; ++m) {
    // u0 = [a.0 a.1 b.0 b.1], u1 = [a.2 a.3 b.2 b.3], u2/u3 likewise c, d.
    const __m512i u0 = shuffle128<0x44>(a[m], b[m]);
    const __m512i u1 = shuffle128<0xEE>(a[m], b[m]);
    const __m512i u2 = shuffle128<0x44>(c[m], d[m]);
    const __m512i u3 = shuffle128<0xEE>(c[m], d[m]);
    // Block 4k+m = [a.k b.k c.k d.k].
    store(out + 64 * (m + 0), shuffle128<0x88>(u0, u2));
    store(out + 64 * (m + 4), shuffle128<0xDD>(u0, u2));
    store(out + 64 * (m + 8), shuffle128<0x88>(u1, u3));
    store(out + 64 * (m + 12), shuffle128<0xDD>(u1, u3));
  }
}

// -- sampling and RNS expansion ----------------------------------------------

RejectCount uniform_reject_avx512(const UniformModulus& m, const u64* words,
                                  std::size_t n_words, u64* out,
                                  std::size_t n_out) {
  if (!m.vector_ok()) {
    return uniform_reject_portable(m, words, n_words, out, n_out);
  }
  const __m512i vq = splat(m.q);
  const __m512i bound = splat(m.reject_bound);
  const __m512d inv_q = _mm512_set1_pd(m.inv_q);
  std::size_t i = 0;
  std::size_t k = 0;
  // Whole steps only while a full step of outputs still fits, so no step
  // can read past the word that fills out; the portable body finishes.
  for (; i + 8 <= n_words && k + 8 <= n_out; i += 8) {
    const __m512i r = load(words + i);
    const __mmask8 keep = _mm512_cmplt_epu64_mask(r, bound);
    // qhat in [floor(r/q) - 1, floor(r/q) + 1] (UniformModulus::vector_ok).
    const __m512i qhat = _mm512_cvttpd_epu64(
        _mm512_mul_pd(_mm512_cvtepu64_pd(r), inv_q));
    __m512i t = _mm512_sub_epi64(r, _mm512_mullo_epi64(qhat, vq));  // [-q, 2q)
    t = _mm512_mask_add_epi64(t, _mm512_movepi64_mask(t), t, vq);    // [0, 2q)
    t = cond_sub(t, vq);
    if (keep == kAll64) [[likely]] {  // no reject: k advances by a constant
      store(out + k, t);
      k += 8;
    } else {
      // Packed in-register and stored whole: the lanes past the kept ones
      // land in out[k + popcount, k + 8), which the next step overwrites.
      store(out + k, _mm512_maskz_compress_epi64(keep, t));
      k += static_cast<std::size_t>(__builtin_popcount(keep));
    }
  }
  const RejectCount tail =
      uniform_reject_portable(m, words + i, n_words - i, out + k, n_out - k);
  return {i + tail.consumed, k + tail.written};
}

/// The samples of eight keystream words as i64 lanes. Successive calls
/// are independent chains, which the core overlaps.
inline __m512i gaussian8(const u64* cdf, std::size_t count, __m512i r) {
  const __m512i one = splat(1);
  const __m512i u = _mm512_mask_srli_epi64(r, kAll64, r, 1);
  __m512i mag = _mm512_setzero_si512();
  for (std::size_t k = 0; k < count; ++k) {
    const __mmask8 ge = _mm512_cmpge_epu64_mask(u, splat(cdf[k]));
    mag = _mm512_mask_add_epi64(mag, ge, mag, one);
  }
  const __m512i sign = _mm512_sub_epi64(_mm512_setzero_si512(),
                                        _mm512_and_si512(r, one));
  return _mm512_sub_epi64(_mm512_xor_si512(mag, sign), sign);
}

inline void store_i32x8(i32* p, __m512i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                      _mm512_maskz_cvtepi64_epi32(kAll64, v));
}

void gaussian_cdt_avx512(const u64* cdf, std::size_t count, const u64* words,
                         i32* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    store_i32x8(out + j, gaussian8(cdf, count, load(words + j)));
  }
  if (j < n) gaussian_cdt_portable(cdf, count, words + j, out + j, n - j);
}

constexpr Kernels kAvx512Ifma = {
    .ntt_forward = ntt_forward_lazy_avx512,
    .ntt_inverse = ntt_inverse_lazy_avx512,
    .chacha20_blocks = chacha20_blocks_avx512,
    .dwt_forward = dwt_forward_avx2,
    .dwt_inverse = dwt_inverse_avx2,
    .add = dyadic_add_avx512,
    .sub = dyadic_sub_avx512,
    .mul = dyadic_mul_avx512,
    .negate = dyadic_negate_avx512,
    .mul_scalar = dyadic_mul_scalar_avx512,
    .fma_accumulate = dyadic_fma_accumulate_avx512,
    .sub_mul_scalar = dyadic_sub_mul_scalar_avx512,
    .fma_into = dyadic_fma_into_avx512,
    .fms_into = dyadic_fms_into_avx512,
    .uniform_reject = uniform_reject_avx512,
    .gaussian_cdt = gaussian_cdt_avx512,
    .lift_i8 = lift_signed_avx2<i8>,
    .lift_i32 = lift_signed_avx2<i32>,
    .lift_i64 = lift_signed_avx2<i64>,
};

}  // namespace

const Kernels* avx512ifma_kernels() noexcept { return &kAvx512Ifma; }

}  // namespace abc::simd

#else  // AVX-512 flags unavailable

namespace abc::simd {

const Kernels* avx512ifma_kernels() noexcept { return nullptr; }

}  // namespace abc::simd

#endif
