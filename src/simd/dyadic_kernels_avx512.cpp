/// AVX-512/IFMA batched dyadic kernels (see dyadic_kernels.hpp for the
/// algorithms, avx512_math.hpp for the base-2^52 helpers). Compiled with
/// -mavx512f -mavx512dq -mavx512ifma when the toolchain accepts them; AVX2
/// forwarders otherwise — a CPU that passes the avx512ifma cpuid check
/// always has AVX2, so the fallback stays vectorized.
///
/// Multiplying kernels assume the caller verified DyadicModulus::ifma_ok
/// (prime bit-count <= 50): lazy values and the shifted Barrett quotient
/// must fit the 52-bit vpmadd52 operand window. Multiply-free kernels
/// (add/sub/negate/negate_add) hold at any prime width.

#include "simd/dyadic_kernels.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/kernels_avx512.hpp"

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

}  // namespace

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

void dyadic_fma_avx512(const DyadicModulus& m, u64* dst, const u64* a,
                       const u64* b, std::size_t n) {
  const __m512i vq = splat(m.q);
  const __m512i v2q = splat(m.two_q);
  const __m512i ratio52 = splat(m.ratio52);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i p =
        barrett52_mul(load(a + j), load(b + j), vq, v2q, ratio52, m.shift);
    store(dst + j, cond_sub(_mm512_add_epi64(load(dst + j), p), vq));
  }
  if (j < n) dyadic_fma_portable(m, dst + j, a + j, b + j, n - j);
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
__attribute__((optimize("no-tree-vectorize"))) static void stage_permuted(
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
      dyadic_fma_portable(m, acc0 + j0 + j, d + j, b + j0 + j, len - j);
      dyadic_fma_portable(m, acc1 + j0 + j, d + j, a + j0 + j, len - j);
    }
  }
}

void dyadic_negate_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                              std::size_t n) {
  const __m512i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i s = load(src + j);
    const __m512i d = load(dst + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(s, d);
    const __m512i diff = _mm512_sub_epi64(s, d);
    store(dst + j, _mm512_mask_add_epi64(diff, borrow, diff, vq));
  }
  if (j < n) dyadic_negate_add_portable(m, dst + j, src + j, n - j);
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

}  // namespace abc::simd

#else  // AVX-512 flags unavailable: AVX2 forwarders, never selected at
       // runtime (avx512ifma_compiled() is false).

namespace abc::simd {

void dyadic_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  dyadic_add_avx2(m, dst, src, n);
}
void dyadic_sub_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  dyadic_sub_avx2(m, dst, src, n);
}
void dyadic_mul_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n) {
  dyadic_mul_avx2(m, dst, src, n);
}
void dyadic_fma_avx512(const DyadicModulus& m, u64* dst, const u64* a,
                       const u64* b, std::size_t n) {
  dyadic_fma_avx2(m, dst, a, b, n);
}
void dyadic_negate_avx512(const DyadicModulus& m, u64* dst, std::size_t n) {
  dyadic_negate_avx2(m, dst, n);
}
void dyadic_mul_scalar_avx512(const DyadicModulus& m, u64* dst, std::size_t n,
                              u64 s, u64 s_shoup) {
  dyadic_mul_scalar_avx2(m, dst, n, s, s_shoup);
}
void dyadic_fma_accumulate_avx512(const DyadicModulus& m, u64* acc0, u64* acc1,
                                  const u64* digit, const u64* b, const u64* a,
                                  const u32* perm, std::size_t n) {
  dyadic_fma_accumulate_avx2(m, acc0, acc1, digit, b, a, perm, n);
}
void dyadic_negate_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                              std::size_t n) {
  dyadic_negate_add_avx2(m, dst, src, n);
}
void dyadic_sub_mul_scalar_avx512(const DyadicModulus& m, u64* dst,
                                  const u64* src, std::size_t n, u64 s,
                                  u64 s_shoup) {
  dyadic_sub_mul_scalar_avx2(m, dst, src, n, s, s_shoup);
}
void dyadic_fma_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n) {
  dyadic_fma_into_avx2(m, out, base, a, b, n);
}
void dyadic_fms_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n) {
  dyadic_fms_into_avx2(m, out, base, a, b, n);
}

}  // namespace abc::simd

#endif
