/// AVX-512/IFMA Harvey lazy-reduction NTT kernels. Compiled with
/// -mavx512f -mavx512dq -mavx512ifma when the toolchain accepts them (see
/// CMakeLists); otherwise this TU degrades to AVX2 forwarders and
/// avx512ifma_compiled() reports false, so the dispatcher never routes
/// here.
///
/// Same stage structure as the AVX2 TU but eight butterflies per iteration
/// and the base-2^52 lazy Shoup product (avx512_math.hpp): the 52-bit
/// twiddle quotients are L.w_shoup[i] >> 12 (forward) and the inverse
/// twiddle's ~L.w_shoup[k] >> 12, derived in-register — the NttLayout
/// carries no extra tables for this tier. The base-52 contract
/// needs every multiplier input < 2^52; lazy forward values reach 4q, so
/// the dispatcher only routes here for q < 2^50
/// (DyadicModulus::kIfmaMaxPrimeBits) and falls back to AVX2 for wider
/// primes. Stages with t < 8 reuse the portable scalar code — 3/log_n of
/// the work.

#include "simd/kernels_avx2.hpp"
#include "simd/kernels_avx512.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/simd_caps.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include "simd/avx512_math.hpp"

namespace abc::simd {

bool avx512ifma_compiled() noexcept { return true; }

namespace {

using avx512::cond_sub;
using avx512::load;
using avx512::shoup52_mul_lazy;
using avx512::splat;
using avx512::store;

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

}  // namespace

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

}  // namespace abc::simd

#else  // AVX-512 flags unavailable: AVX2 forwarders, never selected at
       // runtime.

namespace abc::simd {

bool avx512ifma_compiled() noexcept { return false; }

void ntt_forward_lazy_avx512(const NttLayout& L, u64* a) {
  ntt_forward_lazy_avx2(L, a);
}
void ntt_inverse_lazy_avx512(const NttLayout& L, u64* a) {
  ntt_inverse_lazy_avx2(L, a);
}

}  // namespace abc::simd

#endif
