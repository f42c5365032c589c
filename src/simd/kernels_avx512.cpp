/// The AVX-512/IFMA kernel tier: eight-lane Harvey NTT butterflies, the
/// batched dyadic ops on vpmadd52, sixteen-lane ChaCha20, and the tier's
/// Kernels table (kernels.hpp). Compiled with -mavx512f -mavx512dq
/// -mavx512ifma when the toolchain accepts them; otherwise the TU holds no
/// kernels and avx512ifma_kernels() returns nullptr, so the tier is never
/// selected. There is no 512-bit DWT (dwt_kernels.hpp): the table carries
/// the AVX2 butterflies.
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
/// NttLayout carries no extra tables for this tier. Stages with t < 8
/// reuse the portable scalar code — 3/log_n of the work.
///
/// Dyadic ops: see dyadic_kernels.hpp for the algorithms.
///
/// ChaCha20 (see chacha_kernels.hpp), AVX-512F only: sixteen blocks per
/// call, one per 32-bit lane: the sixteen state words are sixteen __m512i,
/// the counter word carries counter+0..15, every rotation is one vprold.
/// The output transpose is a 4x4 word transpose inside each 128-bit lane
/// (unpack epi32/epi64) followed by a 4x4 transpose of 128-bit lanes (two
/// rounds of shuffle_i32x4) into block order.

#include "simd/chacha_kernels.hpp"
#include "simd/dwt_kernels.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/kernels.hpp"
#include "simd/ntt_kernels.hpp"

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

void reduce_from_4q_avx512(u64* a, std::size_t n, u64 q) {
  const __m512i vq = splat(q);
  const __m512i v2q = splat(2 * q);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m512i v = load(a + j);
    v = cond_sub(v, v2q);
    v = cond_sub(v, vq);
    store(a + j, v);
  }
  if (j < n) reduce_from_4q_portable(a + j, n - j, q);
}

void ntt_forward_lazy_avx512(const NttLayout& L, u64* a) {
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  int s = 0;
  for (; s < L.log_n; ++s) {
    const std::size_t m = std::size_t{1} << s;
    const std::size_t t = L.n >> (s + 1);
    if (t < 8) break;
    for (std::size_t i = 0; i < m; ++i) {
      const __m512i w = splat(L.w[m + i]);
      const __m512i wsh52 = splat(L.w_shoup[m + i] >> 12);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i vx = load(x + j);
        const __m512i vy = load(y + j);                          // < 4q < 2^52
        vx = cond_sub(vx, v2q);                                  // < 2q
        const __m512i vv = shoup52_mul_lazy(vy, w, wsh52, vq);   // < 2q
        store(x + j, _mm512_add_epi64(vx, vv));                  // < 4q
        store(y + j,
              _mm512_sub_epi64(_mm512_add_epi64(vx, v2q), vv));  // < 4q
      }
    }
  }
  if (s < L.log_n) ntt_forward_lazy_stages_portable(L, a, s, L.log_n);
  reduce_from_4q_avx512(a, L.n, L.q);
}

void ntt_inverse_lazy_avx512(const NttLayout& L, u64* a) {
  const __m512i vq = splat(L.q);
  const __m512i v2q = splat(2 * L.q);
  const int scalar_stages = L.log_n < 3 ? L.log_n : 3;  // t in {1, 2, 4}
  ntt_inverse_lazy_stages_portable(L, a, 0, scalar_stages);
  for (int s = scalar_stages; s < L.log_n; ++s) {
    const std::size_t t = std::size_t{1} << s;
    const std::size_t m = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const ShoupTwiddle tw = inverse_twiddle(L, m, i);
      const __m512i w = splat(tw.w);
      const __m512i wsh52 = splat(tw.w_shoup >> 12);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 8) {
        const __m512i vx = load(x + j);
        const __m512i vy = load(y + j);
        const __m512i sum = _mm512_add_epi64(vx, vy);            // < 4q
        store(x + j, cond_sub(sum, v2q));                        // < 2q
        const __m512i d =
            _mm512_sub_epi64(_mm512_add_epi64(vx, v2q), vy);     // < 4q
        store(y + j, shoup52_mul_lazy(d, w, wsh52, vq));         // < 2q
      }
    }
  }
  // N^{-1} scaling with full reduction.
  const __m512i ninv = splat(L.n_inv);
  const __m512i ninv_sh52 = splat(L.n_inv_shoup >> 12);
  std::size_t j = 0;
  for (; j + 8 <= L.n; j += 8) {
    const __m512i v = shoup52_mul_lazy(load(a + j), ninv, ninv_sh52, vq);
    store(a + j, cond_sub(v, vq));
  }
  for (; j < L.n; ++j) {
    u64 v = a[j] * L.n_inv - mul_hi(a[j], L.n_inv_shoup) * L.q;
    if (v >= L.q) v -= L.q;
    a[j] = v;
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
constexpr __mmask8 kAll64 = 0xFF;

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
};

}  // namespace

const Kernels* avx512ifma_kernels() noexcept { return &kAvx512Ifma; }

}  // namespace abc::simd

#else  // AVX-512 flags unavailable

namespace abc::simd {

const Kernels* avx512ifma_kernels() noexcept { return nullptr; }

}  // namespace abc::simd

#endif
