/// The AVX2 kernel tier: Harvey NTT butterflies, the batched dyadic ops,
/// eight-lane ChaCha20, and the tier's Kernels table (kernels.hpp). Compiled
/// with -mavx2 on x86-64; without AVX2 the TU holds no kernels and
/// avx2_kernels() returns nullptr, so the tier is never selected. The DWT
/// entries are dwt_kernels_avx2.cpp's, which needs -ffp-contract=off too.
///
/// NTT: a butterfly stage with gap t processes t contiguous pairs under one
/// twiddle, so every stage with t >= 4 runs four butterflies per iteration
/// on splatted twiddles with purely sequential loads (the flat Shoup-pair
/// layout in NttLayout). The two narrowest stages (t = 2, 1: the last two
/// forward, the first two inverse) run as one register tail over
/// eight-word blocks held in two registers, regrouped between stages by
/// vperm2i128/vpunpck{l,h}qdq, with each stage's 2 or 4 twiddles loaded as
/// one vector; the forward tail also does the [0, 4q) -> [0, q) correction
/// and the inverse folds its N^{-1} scaling into its last stage
/// (scaled_last_inverse_twiddle). Only n < 8 runs the portable code.
///
/// Dyadic ops: see dyadic_kernels.hpp for the algorithms.
///
/// ChaCha20 (see chacha_kernels.hpp): eight blocks per pass, one per 32-bit
/// lane: the sixteen state words are sixteen __m256i, the counter word
/// carries counter+0..7. Rotations by 16 and 8 are byte shuffles, by 12 and
/// 7 shift+or. The output transpose is a 4x4 word transpose inside each
/// 128-bit half (unpack epi32/epi64) followed by a 128-bit half swap
/// (permute2x128) into block order.
///
/// Sampling and RNS expansion (see sampler_kernels.hpp): the Gaussian CDT
/// count as one signed compare and one add per entry over four samples,
/// and the signed lift on sign-extending loads (the AVX-512/IFMA table
/// carries this lift too). The uniform reject is the portable body: AVX2
/// has no 64-bit multiply, double conversion or compress, and a version
/// built from 32-bit partial products and a permute-table compress ran no
/// faster (docs/EXPERIMENTS.md E8).

#include <cstring>

#include "simd/chacha_kernels.hpp"
#include "simd/dwt_kernels.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/kernels.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/sampler_kernels.hpp"

#if defined(__AVX2__)

#include "simd/avx2_math.hpp"

namespace abc::simd {
namespace {

using avx2::cmplt_epu64;
using avx2::cond_sub;
using avx2::mul_hi64;
using avx2::mul_lo64;
using avx2::mul_wide64;
using avx2::shoup_mul_lazy;
using avx2::splat;

inline __m256i load(const u64* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(u64* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// -- NTT ---------------------------------------------------------------------

/// Harvey CT butterfly on four lanes: x, y < 4q in; outputs < 4q.
inline void ct_butterfly(__m256i& x, __m256i& y, __m256i w, __m256i wsh,
                         __m256i vq, __m256i v2q) noexcept {
  const __m256i u = cond_sub(x, v2q);                   // < 2q
  const __m256i v = shoup_mul_lazy(y, w, wsh, vq);      // < 2q
  x = _mm256_add_epi64(u, v);                           // < 4q
  y = _mm256_sub_epi64(_mm256_add_epi64(u, v2q), v);    // < 4q
}

/// Harvey GS butterfly on four lanes: x, y < 2q in; outputs < 2q.
inline void gs_butterfly(__m256i& x, __m256i& y, __m256i w, __m256i wsh,
                         __m256i vq, __m256i v2q) noexcept {
  const __m256i d = _mm256_sub_epi64(_mm256_add_epi64(x, v2q), y);  // < 4q
  x = cond_sub(_mm256_add_epi64(x, y), v2q);                        // < 2q
  y = shoup_mul_lazy(d, w, wsh, vq);                                // < 2q
}

/// Two consecutive words at @p p spread over four lanes by @p Imm (vpermq).
template <int Imm>
inline __m256i load2_spread(const u64* p) noexcept {
  return _mm256_permute4x64_epi64(
      _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      Imm);
}

/// The inverse twiddle q - w[k] and its quotient ~w_shoup[k]
/// (inverse_twiddle), four lanes at a time.
inline void mirror_twiddles(__m256i& w, __m256i& wsh, __m256i vq) noexcept {
  w = _mm256_sub_epi64(vq, w);
  wsh = _mm256_xor_si256(wsh, _mm256_set1_epi64x(-1));
}

// Register tail: an eight-word block b0..b7 sits in two registers, each
// stage's butterfly x inputs in one and the lane-aligned y inputs in the
// other. Forward: t = 2 takes x = b0,1,4,5, y = b2,3,6,7 (vperm2i128 of
// lo:hi); t = 1 takes x = b0,2,4,6, y = b1,3,5,7 (vpunpck{l,h}qdq). The
// inverse's t = 1 takes x = b0,4,2,6, y = b1,5,3,7 straight from the
// unpacks of lo:hi, whose twiddle lanes are then groups 0, 2, 1, 3.

/// The forward stages t = 2, 1 and the [0, 4q) -> [0, q) correction in one
/// pass over eight-word blocks (n >= 8). Block b's twiddles are the 2 and 4
/// consecutive slots from n/4 + 2b and n/2 + 4b.
void ntt_forward_tail_avx2(const NttLayout& L, u64* a) {
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  const std::size_t n = L.n;
  for (std::size_t b = 0; b < n / 8; ++b) {
    u64* p = a + 8 * b;
    const __m256i lo = load(p);
    const __m256i hi = load(p + 4);
    __m256i x = _mm256_permute2x128_si256(lo, hi, 0x20);
    __m256i y = _mm256_permute2x128_si256(lo, hi, 0x31);
    std::size_t k = n / 4 + 2 * b;
    ct_butterfly(x, y, load2_spread<0x50>(L.w + k),
                 load2_spread<0x50>(L.w_shoup + k), vq, v2q);
    __m256i x1 = _mm256_unpacklo_epi64(x, y);
    __m256i y1 = _mm256_unpackhi_epi64(x, y);
    k = n / 2 + 4 * b;
    ct_butterfly(x1, y1, load(L.w + k), load(L.w_shoup + k), vq, v2q);
    x1 = cond_sub(cond_sub(x1, v2q), vq);
    y1 = cond_sub(cond_sub(y1, v2q), vq);
    x = _mm256_unpacklo_epi64(x1, y1);  // b0, b1, b4, b5
    y = _mm256_unpackhi_epi64(x1, y1);  // b2, b3, b6, b7
    store(p, _mm256_permute2x128_si256(x, y, 0x20));
    store(p + 4, _mm256_permute2x128_si256(x, y, 0x31));
  }
}

/// The inverse stages t = 1, 2 in one pass over eight-word blocks (n >= 8).
/// Block b's twiddles mirror the forward tail's: the 4 and 2 slots ending
/// at n - 1 - 4b and n/2 - 1 - 2b, reversed.
void ntt_inverse_tail_avx2(const NttLayout& L, u64* a) {
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  const std::size_t n = L.n;
  for (std::size_t b = 0; b < n / 8; ++b) {
    u64* p = a + 8 * b;
    const __m256i lo = load(p);
    const __m256i hi = load(p + 4);
    __m256i x = _mm256_unpacklo_epi64(lo, hi);  // b0, b4, b2, b6
    __m256i y = _mm256_unpackhi_epi64(lo, hi);  // b1, b5, b3, b7
    std::size_t k = n - 4 - 4 * b;
    // Groups 0, 2, 1, 3 sit at offsets 3, 1, 2, 0 of the loaded slots.
    __m256i w = _mm256_permute4x64_epi64(load(L.w + k), 0x27);
    __m256i wsh = _mm256_permute4x64_epi64(load(L.w_shoup + k), 0x27);
    mirror_twiddles(w, wsh, vq);
    gs_butterfly(x, y, w, wsh, vq, v2q);
    const __m256i u = _mm256_unpacklo_epi64(x, y);  // b0..b3
    const __m256i v = _mm256_unpackhi_epi64(x, y);  // b4..b7
    x = _mm256_permute2x128_si256(u, v, 0x20);      // b0, b1, b4, b5
    y = _mm256_permute2x128_si256(u, v, 0x31);      // b2, b3, b6, b7
    k = n / 2 - 2 - 2 * b;
    w = load2_spread<0x05>(L.w + k);
    wsh = load2_spread<0x05>(L.w_shoup + k);
    mirror_twiddles(w, wsh, vq);
    gs_butterfly(x, y, w, wsh, vq, v2q);
    store(p, _mm256_permute2x128_si256(x, y, 0x20));
    store(p + 4, _mm256_permute2x128_si256(x, y, 0x31));
  }
}

void ntt_forward_lazy_avx2(const NttLayout& L, u64* a) {
  if (L.n < 8) {
    ntt_forward_lazy_portable(L, a);
    return;
  }
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  for (int s = 0; s < L.log_n - 2; ++s) {  // t >= 4
    const std::size_t m = std::size_t{1} << s;
    const std::size_t t = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const __m256i w = splat(L.w[m + i]);
      const __m256i wsh = splat(L.w_shoup[m + i]);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 4) {
        __m256i vx = load(x + j);
        __m256i vy = load(y + j);
        ct_butterfly(vx, vy, w, wsh, vq, v2q);
        store(x + j, vx);
        store(y + j, vy);
      }
    }
  }
  ntt_forward_tail_avx2(L, a);
}

void ntt_inverse_lazy_avx2(const NttLayout& L, u64* a) {
  if (L.n < 8) {
    ntt_inverse_lazy_portable(L, a);
    return;
  }
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  ntt_inverse_tail_avx2(L, a);
  for (int s = 2; s < L.log_n - 1; ++s) {  // t >= 4, all but the last
    const std::size_t t = std::size_t{1} << s;
    const std::size_t m = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const ShoupTwiddle tw = inverse_twiddle(L, m, i);
      const __m256i w = splat(tw.w);
      const __m256i wsh = splat(tw.w_shoup);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 4) {
        __m256i vx = load(x + j);
        __m256i vy = load(y + j);
        gs_butterfly(vx, vy, w, wsh, vq, v2q);
        store(x + j, vx);
        store(y + j, vy);
      }
    }
  }
  // The last stage with the N^{-1} scaling folded in, fully reduced.
  const ShoupTwiddle last = scaled_last_inverse_twiddle(L);
  const __m256i w = splat(last.w);
  const __m256i wsh = splat(last.w_shoup);
  const __m256i ninv = splat(L.n_inv);
  const __m256i ninv_sh = splat(L.n_inv_shoup);
  u64* x = a;
  u64* y = a + L.n / 2;
  for (std::size_t j = 0; j < L.n / 2; j += 4) {
    const __m256i vx = load(x + j);
    const __m256i vy = load(y + j);
    const __m256i sum = _mm256_add_epi64(vx, vy);                     // < 4q
    const __m256i d = _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), vy);  // < 4q
    store(x + j, cond_sub(shoup_mul_lazy(sum, ninv, ninv_sh, vq), vq));
    store(y + j, cond_sub(shoup_mul_lazy(d, w, wsh, vq), vq));
  }
}

// -- dyadic ops --------------------------------------------------------------

/// Canonical product per lane via the shifted-Barrett constant:
/// r = lo64(a*b) - mulhi((a*b) >> shift, ratio)*q, then <= 2 corrections.
inline __m256i barrett_mul(__m256i a, __m256i b, __m256i vq, __m256i v2q,
                           __m256i ratio, int shift) noexcept {
  __m256i z_lo, z_hi;
  mul_wide64(a, b, z_lo, z_hi);
  const __m256i zh = _mm256_or_si256(_mm256_slli_epi64(z_hi, 64 - shift),
                                     _mm256_srli_epi64(z_lo, shift));
  const __m256i qhat = mul_hi64(zh, ratio);
  __m256i r = _mm256_sub_epi64(z_lo, mul_lo64(qhat, vq));  // < 3q
  r = cond_sub(r, v2q);
  return cond_sub(r, vq);
}

void dyadic_add_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  const __m256i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    store(dst + j, cond_sub(_mm256_add_epi64(load(dst + j), load(src + j)),
                            vq));
  }
  if (j < n) dyadic_add_portable(m, dst + j, src + j, n - j);
}

void dyadic_sub_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  const __m256i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i d = load(dst + j);
    const __m256i s = load(src + j);
    const __m256i borrow = _mm256_and_si256(cmplt_epu64(d, s), vq);
    store(dst + j, _mm256_add_epi64(_mm256_sub_epi64(d, s), borrow));
  }
  if (j < n) dyadic_sub_portable(m, dst + j, src + j, n - j);
}

void dyadic_mul_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  const __m256i vq = splat(m.q);
  const __m256i v2q = splat(m.two_q);
  const __m256i ratio = splat(m.ratio);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    store(dst + j,
          barrett_mul(load(dst + j), load(src + j), vq, v2q, ratio, m.shift));
  }
  if (j < n) dyadic_mul_portable(m, dst + j, src + j, n - j);
}

void dyadic_negate_avx2(const DyadicModulus& m, u64* dst, std::size_t n) {
  const __m256i vq = splat(m.q);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i v = load(dst + j);
    const __m256i nz = _mm256_cmpeq_epi64(v, zero);
    store(dst + j, _mm256_andnot_si256(nz, _mm256_sub_epi64(vq, v)));
  }
  if (j < n) dyadic_negate_portable(m, dst + j, n - j);
}

void dyadic_mul_scalar_avx2(const DyadicModulus& m, u64* dst, std::size_t n,
                            u64 s, u64 s_shoup) {
  const __m256i vq = splat(m.q);
  const __m256i vs = splat(s);
  const __m256i vsh = splat(s_shoup);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i r = shoup_mul_lazy(load(dst + j), vs, vsh, vq);
    store(dst + j, cond_sub(r, vq));
  }
  if (j < n) dyadic_mul_scalar_portable(m, dst + j, n - j, s, s_shoup);
}

// Kept scalar on purpose: with -mavx2 the vectorizer turns this gather
// loop into vpgatherqq, whose per-element cost exceeds two scalar loads
// per cycle once the indexed array spills L1.
__attribute__((optimize("no-tree-vectorize"))) void stage_permuted(
    u64* tmp, const u64* digit, const u32* perm, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) tmp[j] = digit[perm[j]];
}

void dyadic_fma_accumulate_avx2(const DyadicModulus& m, u64* acc0, u64* acc1,
                                const u64* digit, const u64* b, const u64* a,
                                const u32* perm, std::size_t n) {
  // Block-staged rather than vpgatherqq-based: a scalar gather into an
  // L1-resident block beats the AVX2 gather's per-element cost, and the
  // interleaved inner loop then loads each staged digit vector once and
  // feeds both accumulations, making a single pass over the
  // accumulator/key streams (the unfused chain stages a full-size
  // temporary and walks it twice).
  const __m256i vq = splat(m.q);
  const __m256i v2q = splat(m.two_q);
  const __m256i ratio = splat(m.ratio);
  constexpr std::size_t kBlock = 2048;
  alignas(32) u64 tmp[kBlock];
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t len = j0 + kBlock <= n ? kBlock : n - j0;
    const u64* d = digit + j0;
    if (perm != nullptr) {
      stage_permuted(tmp, digit, perm + j0, len);
      d = tmp;
    }
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      const __m256i vd = load(d + j);
      const __m256i p0 =
          barrett_mul(vd, load(b + j0 + j), vq, v2q, ratio, m.shift);
      store(acc0 + j0 + j,
            cond_sub(_mm256_add_epi64(load(acc0 + j0 + j), p0), vq));
      const __m256i p1 =
          barrett_mul(vd, load(a + j0 + j), vq, v2q, ratio, m.shift);
      store(acc1 + j0 + j,
            cond_sub(_mm256_add_epi64(load(acc1 + j0 + j), p1), vq));
    }
    if (j < len) {
      dyadic_fma_into_portable(m, acc0 + j0 + j, acc0 + j0 + j, d + j,
                               b + j0 + j, len - j);
      dyadic_fma_into_portable(m, acc1 + j0 + j, acc1 + j0 + j, d + j,
                               a + j0 + j, len - j);
    }
  }
}

void dyadic_sub_mul_scalar_avx2(const DyadicModulus& m, u64* dst,
                                const u64* src, std::size_t n, u64 s,
                                u64 s_shoup) {
  const __m256i vq = splat(m.q);
  const __m256i vs = splat(s);
  const __m256i vsh = splat(s_shoup);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i d = load(dst + j);
    const __m256i v = load(src + j);
    const __m256i borrow = _mm256_and_si256(cmplt_epu64(d, v), vq);
    const __m256i t = _mm256_add_epi64(_mm256_sub_epi64(d, v), borrow);
    store(dst + j, cond_sub(shoup_mul_lazy(t, vs, vsh, vq), vq));
  }
  if (j < n)
    dyadic_sub_mul_scalar_portable(m, dst + j, src + j, n - j, s, s_shoup);
}

void dyadic_fma_into_avx2(const DyadicModulus& m, u64* out, const u64* base,
                          const u64* a, const u64* b, std::size_t n) {
  const __m256i vq = splat(m.q);
  const __m256i v2q = splat(m.two_q);
  const __m256i ratio = splat(m.ratio);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i p =
        barrett_mul(load(a + j), load(b + j), vq, v2q, ratio, m.shift);
    store(out + j, cond_sub(_mm256_add_epi64(load(base + j), p), vq));
  }
  if (j < n)
    dyadic_fma_into_portable(m, out + j, base + j, a + j, b + j, n - j);
}

void dyadic_fms_into_avx2(const DyadicModulus& m, u64* out, const u64* base,
                          const u64* a, const u64* b, std::size_t n) {
  const __m256i vq = splat(m.q);
  const __m256i v2q = splat(m.two_q);
  const __m256i ratio = splat(m.ratio);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i p =
        barrett_mul(load(a + j), load(b + j), vq, v2q, ratio, m.shift);
    const __m256i s = load(base + j);
    const __m256i borrow = _mm256_and_si256(cmplt_epu64(s, p), vq);
    store(out + j, _mm256_add_epi64(_mm256_sub_epi64(s, p), borrow));
  }
  if (j < n)
    dyadic_fms_into_portable(m, out + j, base + j, a + j, b + j, n - j);
}

// -- ChaCha20 ----------------------------------------------------------------

inline __m256i rotl16(__m256i x) noexcept {
  const __m256i k = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
                                     14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5,
                                     10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, k);
}

inline __m256i rotl8(__m256i x) noexcept {
  const __m256i k = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
                                     15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6,
                                     11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, k);
}

template <int R>
inline __m256i rotl(__m256i x) noexcept {
  return _mm256_or_si256(_mm256_slli_epi32(x, R), _mm256_srli_epi32(x, 32 - R));
}

inline void quarter_round(__m256i& a, __m256i& b, __m256i& c,
                          __m256i& d) noexcept {
  a = _mm256_add_epi32(a, b); d = rotl16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = rotl8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<7>(_mm256_xor_si256(b, c));
}

/// 4x4 word transpose inside each 128-bit half: on return r[m]'s half k
/// holds words (x0..x3)[4k+m], i.e. four consecutive words of lane 4k+m.
inline void transpose4(const __m256i x0, const __m256i x1, const __m256i x2,
                       const __m256i x3, __m256i r[4]) noexcept {
  const __m256i t0 = _mm256_unpacklo_epi32(x0, x1);
  const __m256i t1 = _mm256_unpackhi_epi32(x0, x1);
  const __m256i t2 = _mm256_unpacklo_epi32(x2, x3);
  const __m256i t3 = _mm256_unpackhi_epi32(x2, x3);
  r[0] = _mm256_unpacklo_epi64(t0, t2);
  r[1] = _mm256_unpackhi_epi64(t0, t2);
  r[2] = _mm256_unpacklo_epi64(t1, t3);
  r[3] = _mm256_unpackhi_epi64(t1, t3);
}

inline __m256i splat32(u32 w) noexcept {
  return _mm256_set1_epi32(static_cast<int>(w));
}

inline void store(u8* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Eight blocks, counters counter..counter+7, into out[512].
void chacha20_8blocks(const u32* key, u32 counter, const u32* nonce,
                      u8* out) noexcept {
  // Lane i runs block counter + i; every other word is shared.
  __m256i state[16];
  for (int i = 0; i < 4; ++i) state[i] = splat32(kChachaSigma[i]);
  for (int i = 0; i < 8; ++i) state[4 + i] = splat32(key[i]);
  state[12] = _mm256_add_epi32(splat32(counter),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int i = 0; i < 3; ++i) state[13 + i] = splat32(nonce[i]);
  __m256i x[16];
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
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], state[i]);

  // a/b/c/d[m] half k = words 0-3 / 4-7 / 8-11 / 12-15 of block 4k+m.
  __m256i a[4], b[4], c[4], d[4];
  transpose4(x[0], x[1], x[2], x[3], a);
  transpose4(x[4], x[5], x[6], x[7], b);
  transpose4(x[8], x[9], x[10], x[11], c);
  transpose4(x[12], x[13], x[14], x[15], d);
  for (int m = 0; m < 4; ++m) {
    u8* lo = out + 64 * m;        // block m
    u8* hi = out + 64 * (m + 4);  // block m + 4
    store(lo, _mm256_permute2x128_si256(a[m], b[m], 0x20));
    store(lo + 32, _mm256_permute2x128_si256(c[m], d[m], 0x20));
    store(hi, _mm256_permute2x128_si256(a[m], b[m], 0x31));
    store(hi + 32, _mm256_permute2x128_si256(c[m], d[m], 0x31));
  }
}

void chacha20_blocks_avx2(const u32* key, u32 counter, const u32* nonce,
                          u8* out) noexcept {
  chacha20_8blocks(key, counter, nonce, out);
  chacha20_8blocks(key, counter + 8, nonce, out + 512);
}

// -- sampling and RNS expansion ----------------------------------------------

void gaussian_cdt_avx2(const u64* cdf, std::size_t count, const u64* words,
                       i32* out, std::size_t n) {
  const __m256i one = splat(1);
  const __m256i zero = _mm256_setzero_si256();
  // Low i32 of each i64 lane into the low 128 bits.
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i r = load(words + j);
    const __m256i u = _mm256_srli_epi64(r, 1);
    // u and every entry are below 2^63, so the signed compare is exact:
    // cdf[k] > u adds -1, leaving count minus the entries u does not clear.
    __m256i mag = splat(count);
    for (std::size_t k = 0; k < count; ++k) {
      mag = _mm256_add_epi64(mag, _mm256_cmpgt_epi64(splat(cdf[k]), u));
    }
    const __m256i sign = _mm256_sub_epi64(zero, _mm256_and_si256(r, one));
    const __m256i v = _mm256_sub_epi64(_mm256_xor_si256(mag, sign), sign);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(v, narrow)));
  }
  if (j < n) gaussian_cdt_portable(cdf, count, words + j, out + j, n - j);
}

/// Four signed words sign-extended to i64 lanes.
inline __m256i load_signed4(const i8* p) noexcept {
  i32 bytes;
  std::memcpy(&bytes, p, sizeof bytes);
  return _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(bytes));
}
inline __m256i load_signed4(const i32* p) noexcept {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i load_signed4(const i64* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

}  // namespace

template <class I>
void lift_signed_avx2(const rns::Modulus& q, u64* out, const I* in,
                      const u64* add, std::size_t n) {
  const __m256i vq = splat(modulus_value(q));
  const __m256i neg_q = splat(0 - modulus_value(q));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i x = load_signed4(in + j);
    // Lanes with x < q and not x < -q (q < 2^63: signed compares).
    const __m256i in_range = _mm256_andnot_si256(
        _mm256_cmpgt_epi64(neg_q, x), _mm256_cmpgt_epi64(vq, x));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(in_range)) != 0xF)
        [[unlikely]] {
      lift_signed_portable(q, out + j, in + j,
                           add == nullptr ? nullptr : add + j, 4);
      continue;
    }
    // x in [-q, q): x + q where negative.
    __m256i v = _mm256_add_epi64(
        x, _mm256_and_si256(_mm256_cmpgt_epi64(zero, x), vq));
    if (add != nullptr) {
      const __m256i s = _mm256_add_epi64(v, load(add + j));  // < 2q < 2^63
      v = _mm256_sub_epi64(s,
                           _mm256_andnot_si256(_mm256_cmpgt_epi64(vq, s), vq));
    }
    store(out + j, v);
  }
  if (j < n) {
    lift_signed_portable(q, out + j, in + j,
                         add == nullptr ? nullptr : add + j, n - j);
  }
}

template void lift_signed_avx2<i8>(const rns::Modulus&, u64*, const i8*,
                                   const u64*, std::size_t);
template void lift_signed_avx2<i32>(const rns::Modulus&, u64*, const i32*,
                                    const u64*, std::size_t);
template void lift_signed_avx2<i64>(const rns::Modulus&, u64*, const i64*,
                                    const u64*, std::size_t);

namespace {

constexpr Kernels kAvx2 = {
    .ntt_forward = ntt_forward_lazy_avx2,
    .ntt_inverse = ntt_inverse_lazy_avx2,
    .chacha20_blocks = chacha20_blocks_avx2,
    .dwt_forward = dwt_forward_avx2,
    .dwt_inverse = dwt_inverse_avx2,
    .add = dyadic_add_avx2,
    .sub = dyadic_sub_avx2,
    .mul = dyadic_mul_avx2,
    .negate = dyadic_negate_avx2,
    .mul_scalar = dyadic_mul_scalar_avx2,
    .fma_accumulate = dyadic_fma_accumulate_avx2,
    .sub_mul_scalar = dyadic_sub_mul_scalar_avx2,
    .fma_into = dyadic_fma_into_avx2,
    .fms_into = dyadic_fms_into_avx2,
    .uniform_reject = uniform_reject_portable,
    .gaussian_cdt = gaussian_cdt_avx2,
    .lift_i8 = lift_signed_avx2<i8>,
    .lift_i32 = lift_signed_avx2<i32>,
    .lift_i64 = lift_signed_avx2<i64>,
};

}  // namespace

const Kernels* avx2_kernels() noexcept { return &kAvx2; }

}  // namespace abc::simd

#else  // !__AVX2__

namespace abc::simd {

const Kernels* avx2_kernels() noexcept { return nullptr; }

}  // namespace abc::simd

#endif
