/// AVX2 Harvey lazy-reduction NTT kernels. Compiled with -mavx2 on x86-64
/// (see CMakeLists); on other targets this TU degrades to portable
/// forwarders and avx2_compiled() reports false, so the dispatcher never
/// routes here.
///
/// Vectorization strategy: a butterfly stage with gap t processes t
/// contiguous pairs under one twiddle, so every stage with t >= 4 runs four
/// butterflies per iteration on splatted twiddles with purely sequential
/// loads (the flat Shoup-pair layout in NttLayout). The last two forward
/// stages / first two inverse stages (t in {1, 2}) reuse the portable
/// scalar code — 2/log_n of the work; the correction and scaling passes are
/// vectorized as well.

#include "simd/kernels_avx2.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/simd_caps.hpp"

#if defined(__AVX2__)

#include "simd/avx2_math.hpp"

namespace abc::simd {

bool avx2_compiled() noexcept { return true; }

namespace {

using avx2::cond_sub;
using avx2::shoup_mul_lazy;
using avx2::splat;

inline __m256i load(const u64* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(u64* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void reduce_from_4q_avx2(u64* a, std::size_t n, u64 q) {
  const __m256i vq = splat(q);
  const __m256i v2q = splat(2 * q);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256i v = load(a + j);
    v = cond_sub(v, v2q);
    v = cond_sub(v, vq);
    store(a + j, v);
  }
  if (j < n) reduce_from_4q_portable(a + j, n - j, q);
}

}  // namespace

void ntt_forward_lazy_avx2(const NttLayout& L, u64* a) {
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  int s = 0;
  for (; s < L.log_n; ++s) {
    const std::size_t m = std::size_t{1} << s;
    const std::size_t t = L.n >> (s + 1);
    if (t < 4) break;
    for (std::size_t i = 0; i < m; ++i) {
      const __m256i w = splat(L.w[m + i]);
      const __m256i wsh = splat(L.w_shoup[m + i]);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 4) {
        __m256i vx = load(x + j);
        const __m256i vy = load(y + j);
        vx = cond_sub(vx, v2q);                                // < 2q
        const __m256i vv = shoup_mul_lazy(vy, w, wsh, vq);     // < 2q
        store(x + j, _mm256_add_epi64(vx, vv));                // < 4q
        store(y + j,
              _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), vv));  // < 4q
      }
    }
  }
  if (s < L.log_n) ntt_forward_lazy_stages_portable(L, a, s, L.log_n);
  reduce_from_4q_avx2(a, L.n, L.q);
}

void ntt_inverse_lazy_avx2(const NttLayout& L, u64* a) {
  const __m256i vq = splat(L.q);
  const __m256i v2q = splat(2 * L.q);
  const int scalar_stages = L.log_n < 2 ? L.log_n : 2;  // t in {1, 2}
  ntt_inverse_lazy_stages_portable(L, a, 0, scalar_stages);
  for (int s = scalar_stages; s < L.log_n; ++s) {
    const std::size_t t = std::size_t{1} << s;
    const std::size_t m = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const ShoupTwiddle tw = inverse_twiddle(L, m, i);
      const __m256i w = splat(tw.w);
      const __m256i wsh = splat(tw.w_shoup);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; j += 4) {
        const __m256i vx = load(x + j);
        const __m256i vy = load(y + j);
        const __m256i sum = _mm256_add_epi64(vx, vy);           // < 4q
        store(x + j, cond_sub(sum, v2q));                       // < 2q
        const __m256i d =
            _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), vy);    // < 4q
        store(y + j, shoup_mul_lazy(d, w, wsh, vq));            // < 2q
      }
    }
  }
  // N^{-1} scaling with full reduction.
  const __m256i ninv = splat(L.n_inv);
  const __m256i ninv_sh = splat(L.n_inv_shoup);
  std::size_t j = 0;
  for (; j + 4 <= L.n; j += 4) {
    const __m256i v = shoup_mul_lazy(load(a + j), ninv, ninv_sh, vq);
    store(a + j, cond_sub(v, vq));
  }
  for (; j < L.n; ++j) {
    u64 v = a[j] * L.n_inv - mul_hi(a[j], L.n_inv_shoup) * L.q;
    if (v >= L.q) v -= L.q;
    a[j] = v;
  }
}

}  // namespace abc::simd

#else  // !__AVX2__: portable forwarders, never selected at runtime.

namespace abc::simd {

bool avx2_compiled() noexcept { return false; }

void ntt_forward_lazy_avx2(const NttLayout& L, u64* a) {
  ntt_forward_lazy_portable(L, a);
}
void ntt_inverse_lazy_avx2(const NttLayout& L, u64* a) {
  ntt_inverse_lazy_portable(L, a);
}

}  // namespace abc::simd

#endif
