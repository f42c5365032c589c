/// AVX2 batched dyadic kernels (see dyadic_kernels.hpp for the algorithm).
/// Compiled with -mavx2 on x86-64; portable forwarders otherwise.

#include "simd/dyadic_kernels.hpp"
#include "simd/kernels_avx2.hpp"

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

}  // namespace

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

void dyadic_fma_avx2(const DyadicModulus& m, u64* dst, const u64* a,
                     const u64* b, std::size_t n) {
  const __m256i vq = splat(m.q);
  const __m256i v2q = splat(m.two_q);
  const __m256i ratio = splat(m.ratio);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i p =
        barrett_mul(load(a + j), load(b + j), vq, v2q, ratio, m.shift);
    store(dst + j, cond_sub(_mm256_add_epi64(load(dst + j), p), vq));
  }
  if (j < n) dyadic_fma_portable(m, dst + j, a + j, b + j, n - j);
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
__attribute__((optimize("no-tree-vectorize"))) static void stage_permuted(
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
      dyadic_fma_portable(m, acc0 + j0 + j, d + j, b + j0 + j, len - j);
      dyadic_fma_portable(m, acc1 + j0 + j, d + j, a + j0 + j, len - j);
    }
  }
}

void dyadic_negate_add_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                            std::size_t n) {
  const __m256i vq = splat(m.q);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i s = load(src + j);
    const __m256i d = load(dst + j);
    const __m256i borrow = _mm256_and_si256(cmplt_epu64(s, d), vq);
    store(dst + j, _mm256_add_epi64(_mm256_sub_epi64(s, d), borrow));
  }
  if (j < n) dyadic_negate_add_portable(m, dst + j, src + j, n - j);
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

}  // namespace abc::simd

#else  // !__AVX2__: portable forwarders, never selected at runtime.

namespace abc::simd {

void dyadic_add_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  dyadic_add_portable(m, dst, src, n);
}
void dyadic_sub_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  dyadic_sub_portable(m, dst, src, n);
}
void dyadic_mul_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                     std::size_t n) {
  dyadic_mul_portable(m, dst, src, n);
}
void dyadic_fma_avx2(const DyadicModulus& m, u64* dst, const u64* a,
                     const u64* b, std::size_t n) {
  dyadic_fma_portable(m, dst, a, b, n);
}
void dyadic_negate_avx2(const DyadicModulus& m, u64* dst, std::size_t n) {
  dyadic_negate_portable(m, dst, n);
}
void dyadic_mul_scalar_avx2(const DyadicModulus& m, u64* dst, std::size_t n,
                            u64 s, u64 s_shoup) {
  dyadic_mul_scalar_portable(m, dst, n, s, s_shoup);
}
void dyadic_fma_accumulate_avx2(const DyadicModulus& m, u64* acc0, u64* acc1,
                                const u64* digit, const u64* b, const u64* a,
                                const u32* perm, std::size_t n) {
  dyadic_fma_accumulate_portable(m, acc0, acc1, digit, b, a, perm, n);
}
void dyadic_negate_add_avx2(const DyadicModulus& m, u64* dst, const u64* src,
                            std::size_t n) {
  dyadic_negate_add_portable(m, dst, src, n);
}
void dyadic_sub_mul_scalar_avx2(const DyadicModulus& m, u64* dst,
                                const u64* src, std::size_t n, u64 s,
                                u64 s_shoup) {
  dyadic_sub_mul_scalar_portable(m, dst, src, n, s, s_shoup);
}
void dyadic_fma_into_avx2(const DyadicModulus& m, u64* out, const u64* base,
                          const u64* a, const u64* b, std::size_t n) {
  dyadic_fma_into_portable(m, out, base, a, b, n);
}
void dyadic_fms_into_avx2(const DyadicModulus& m, u64* out, const u64* base,
                          const u64* a, const u64* b, std::size_t n) {
  dyadic_fms_into_portable(m, out, base, a, b, n);
}

}  // namespace abc::simd

#endif
