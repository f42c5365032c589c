/// AVX2 complex double DWT butterflies (see dwt_kernels.hpp). Compiled
/// with -mavx2 -ffp-contract=off on x86-64; elsewhere the TU is empty and
/// no kernel table names them.
///
/// One __m256d holds two complex points. Stages with gap t >= 2 run two
/// butterflies per iteration under a splatted twiddle, two stages per pass
/// over the data where both have t >= 2; the t = 1 stage
/// (last forward, first inverse) pairs butterflies i and i+1 with 128-bit
/// lane permutes and loads their two twiddles as one vector. The inverse
/// reads the forward table and conjugates each twiddle as it loads it.

#include "simd/dwt_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace abc::simd {
namespace {

/// (vr*wr - vi*wi, vi*wr + vr*wi) per complex lane, wr/wi per lane.
inline __m256d cmul(__m256d v, __m256d wr, __m256d wi) noexcept {
  const __m256d p = _mm256_mul_pd(v, wr);
  const __m256d q = _mm256_mul_pd(_mm256_permute_pd(v, 0x5), wi);
  return _mm256_addsub_pd(p, q);
}

/// -x by a sign-bit flip, the IEEE negation Cx::conj performs (0.0 - x
/// would turn a -0.0 into +0.0).
inline __m256d negate(__m256d x) noexcept {
  return _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
}

/// Two twiddles [w0, w1] -> their real parts, imaginary parts per lane.
inline void split(__m256d w, __m256d& wr, __m256d& wi) noexcept {
  wr = _mm256_movedup_pd(w);
  wi = _mm256_permute_pd(w, 0xF);
}

/// Imaginary part of twiddle w, splatted; conjugated for the inverse.
template <bool Forward>
inline __m256d splat_im(const double* w) noexcept {
  const __m256d wi = _mm256_set1_pd(w[1]);
  return Forward ? wi : negate(wi);
}

// Butterflies i and i+1 of a t = 1 stage sit in x = [u_i, v_i] and
// y = [u_{i+1}, v_{i+1}].
inline __m256d firsts(__m256d x, __m256d y) noexcept {
  return _mm256_permute2f128_pd(x, y, 0x20);
}
inline __m256d seconds(__m256d x, __m256d y) noexcept {
  return _mm256_permute2f128_pd(x, y, 0x31);
}

/// One forward (Forward == true) or inverse stage with gap t >= 2 under
/// splatted twiddles (conjugated for the inverse).
template <bool Forward>
void wide_stage(double* a, const double* twiddles, std::size_t m,
                std::size_t t) {
  for (std::size_t i = 0; i < m; ++i) {
    const __m256d wr = _mm256_set1_pd(twiddles[2 * (m + i)]);
    const __m256d wi = splat_im<Forward>(twiddles + 2 * (m + i));
    double* x = a + 4 * i * t;
    double* y = x + 2 * t;
    for (std::size_t j = 0; j < 2 * t; j += 4) {
      const __m256d u = _mm256_loadu_pd(x + j);
      const __m256d v = _mm256_loadu_pd(y + j);
      if constexpr (Forward) {
        const __m256d vw = cmul(v, wr, wi);
        _mm256_storeu_pd(x + j, _mm256_add_pd(u, vw));
        _mm256_storeu_pd(y + j, _mm256_sub_pd(u, vw));
      } else {
        _mm256_storeu_pd(x + j, _mm256_add_pd(u, v));
        _mm256_storeu_pd(y + j, cmul(_mm256_sub_pd(u, v), wr, wi));
      }
    }
  }
}

/// Forward stages (m, t) and (2m, t/2), t >= 4, in one pass: butterflies
/// i of the first stage and 2i, 2i + 1 of the second share four quarters
/// of one block, which stay in registers between the two stages.
void forward_two_stages(double* a, const double* twiddles, std::size_t m,
                        std::size_t t) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* w = twiddles + 2 * (m + i);
    const double* w2 = twiddles + 2 * (2 * m + 2 * i);
    const __m256d w1r = _mm256_set1_pd(w[0]), w1i = _mm256_set1_pd(w[1]);
    const __m256d w2r = _mm256_set1_pd(w2[0]), w2i = _mm256_set1_pd(w2[1]);
    const __m256d w3r = _mm256_set1_pd(w2[2]), w3i = _mm256_set1_pd(w2[3]);
    double* p = a + 4 * i * t;  // quarters of t doubles (t/2 points)
    for (std::size_t j = 0; j < t; j += 4) {
      const __m256d x0 = _mm256_loadu_pd(p + j);
      const __m256d x1 = _mm256_loadu_pd(p + t + j);
      const __m256d x2 = _mm256_loadu_pd(p + 2 * t + j);
      const __m256d x3 = _mm256_loadu_pd(p + 3 * t + j);
      const __m256d v2 = cmul(x2, w1r, w1i);
      const __m256d v3 = cmul(x3, w1r, w1i);
      const __m256d y0 = _mm256_add_pd(x0, v2);
      const __m256d y2 = _mm256_sub_pd(x0, v2);
      const __m256d y1 = _mm256_add_pd(x1, v3);
      const __m256d y3 = _mm256_sub_pd(x1, v3);
      const __m256d u1 = cmul(y1, w2r, w2i);
      const __m256d u3 = cmul(y3, w3r, w3i);
      _mm256_storeu_pd(p + j, _mm256_add_pd(y0, u1));
      _mm256_storeu_pd(p + t + j, _mm256_sub_pd(y0, u1));
      _mm256_storeu_pd(p + 2 * t + j, _mm256_add_pd(y2, u3));
      _mm256_storeu_pd(p + 3 * t + j, _mm256_sub_pd(y2, u3));
    }
  }
}

/// Inverse stages (m, t) and (m/2, 2t), t >= 2, in one pass: butterflies
/// 2i, 2i + 1 of the first stage and i of the second, under conjugated
/// twiddles.
void inverse_two_stages(double* a, const double* twiddles, std::size_t m,
                        std::size_t t) {
  for (std::size_t i = 0; i < m / 2; ++i) {
    const double* v = twiddles + 2 * (m + 2 * i);
    const double* u = twiddles + 2 * (m / 2 + i);
    const __m256d v1r = _mm256_set1_pd(v[0]), v1i = splat_im<false>(v);
    const __m256d v2r = _mm256_set1_pd(v[2]), v2i = splat_im<false>(v + 2);
    const __m256d ur = _mm256_set1_pd(u[0]), ui = splat_im<false>(u);
    double* p = a + 8 * i * t;  // quarters of 2t doubles (t points)
    for (std::size_t j = 0; j < 2 * t; j += 4) {
      const __m256d x0 = _mm256_loadu_pd(p + j);
      const __m256d x1 = _mm256_loadu_pd(p + 2 * t + j);
      const __m256d x2 = _mm256_loadu_pd(p + 4 * t + j);
      const __m256d x3 = _mm256_loadu_pd(p + 6 * t + j);
      const __m256d y0 = _mm256_add_pd(x0, x1);
      const __m256d y1 = cmul(_mm256_sub_pd(x0, x1), v1r, v1i);
      const __m256d y2 = _mm256_add_pd(x2, x3);
      const __m256d y3 = cmul(_mm256_sub_pd(x2, x3), v2r, v2i);
      _mm256_storeu_pd(p + j, _mm256_add_pd(y0, y2));
      _mm256_storeu_pd(p + 4 * t + j, cmul(_mm256_sub_pd(y0, y2), ur, ui));
      _mm256_storeu_pd(p + 2 * t + j, _mm256_add_pd(y1, y3));
      _mm256_storeu_pd(p + 6 * t + j, cmul(_mm256_sub_pd(y1, y3), ur, ui));
    }
  }
}

}  // namespace

void dwt_forward_avx2(double* a, const double* twiddles, std::size_t n) {
  std::size_t m = 1;
  std::size_t t = n / 2;
  for (; t >= 4; m <<= 2, t >>= 2) forward_two_stages(a, twiddles, m, t);
  if (t == 2) wide_stage<true>(a, twiddles, m, t);
  m = n / 2;
  for (std::size_t i = 0; i < m; i += 2) {
    double* p = a + 4 * i;
    const __m256d x = _mm256_loadu_pd(p);
    const __m256d y = _mm256_loadu_pd(p + 4);
    __m256d wr, wi;
    split(_mm256_loadu_pd(twiddles + 2 * (m + i)), wr, wi);
    const __m256d u = firsts(x, y);
    const __m256d v = cmul(seconds(x, y), wr, wi);
    const __m256d s = _mm256_add_pd(u, v);
    const __m256d d = _mm256_sub_pd(u, v);
    _mm256_storeu_pd(p, firsts(s, d));
    _mm256_storeu_pd(p + 4, seconds(s, d));
  }
}

void dwt_inverse_avx2(double* a, const double* twiddles, std::size_t n) {
  std::size_t m = n / 2;
  for (std::size_t i = 0; i < m; i += 2) {
    double* p = a + 4 * i;
    const __m256d x = _mm256_loadu_pd(p);
    const __m256d y = _mm256_loadu_pd(p + 4);
    __m256d wr, wi;
    split(_mm256_loadu_pd(twiddles + 2 * (m + i)), wr, wi);
    wi = negate(wi);
    const __m256d u = firsts(x, y);
    const __m256d v = seconds(x, y);
    const __m256d s = _mm256_add_pd(u, v);
    const __m256d d = cmul(_mm256_sub_pd(u, v), wr, wi);
    _mm256_storeu_pd(p, firsts(s, d));
    _mm256_storeu_pd(p + 4, seconds(s, d));
  }
  std::size_t t = 2;
  for (m = n / 4; m >= 2; m >>= 2, t <<= 2) {
    inverse_two_stages(a, twiddles, m, t);
  }
  if (m == 1) wide_stage<false>(a, twiddles, m, t);
  const __m256d scale = _mm256_set1_pd(1.0 / static_cast<double>(n));
  for (std::size_t j = 0; j < 2 * n; j += 4) {
    _mm256_storeu_pd(a + j, _mm256_mul_pd(_mm256_loadu_pd(a + j), scale));
  }
}

}  // namespace abc::simd

#endif
