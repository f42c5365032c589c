#include "simd/ntt_kernels.hpp"

#include "simd/kernels.hpp"

namespace abc::simd {

namespace {

/// Lazy Shoup product: x*w mod q up to a multiple of q, result < 2q.
/// Valid for any 64-bit x as long as w < q (Harvey's bound).
inline u64 shoup_mul_lazy(u64 x, u64 w, u64 w_shoup, u64 q) noexcept {
  return x * w - mul_hi(x, w_shoup) * q;
}

}  // namespace

void ntt_forward_lazy_stages_portable(const NttLayout& L, u64* a,
                                      int stage_begin, int stage_end) {
  const u64 q = L.q;
  const u64 two_q = 2 * q;
  for (int s = stage_begin; s < stage_end; ++s) {
    const std::size_t m = std::size_t{1} << s;
    const std::size_t t = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const u64 w = L.w[m + i];
      const u64 w_shoup = L.w_shoup[m + i];
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; ++j) {
        // Harvey CT butterfly: x, y < 4q in; outputs < 4q.
        u64 u = x[j];
        if (u >= two_q) u -= two_q;                        // < 2q
        const u64 v = shoup_mul_lazy(y[j], w, w_shoup, q);  // < 2q
        x[j] = u + v;                                       // < 4q
        y[j] = u + two_q - v;                               // < 4q
      }
    }
  }
}

void reduce_from_4q_portable(u64* a, std::size_t n, u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < n; ++j) {
    u64 v = a[j];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    a[j] = v;
  }
}

void ntt_forward_lazy_portable(const NttLayout& L, u64* a) {
  ntt_forward_lazy_stages_portable(L, a, 0, L.log_n);
  reduce_from_4q_portable(a, L.n, L.q);
}

void ntt_inverse_lazy_stages_portable(const NttLayout& L, u64* a,
                                      int stage_begin, int stage_end) {
  const u64 q = L.q;
  const u64 two_q = 2 * q;
  for (int s = stage_begin; s < stage_end; ++s) {
    const std::size_t t = std::size_t{1} << s;
    const std::size_t m = L.n >> (s + 1);
    for (std::size_t i = 0; i < m; ++i) {
      const auto [w, w_shoup] = inverse_twiddle(L, m, i);
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      for (std::size_t j = 0; j < t; ++j) {
        // Harvey GS butterfly: x, y < 2q in; outputs < 2q.
        const u64 u = x[j];
        const u64 v = y[j];
        u64 sum = u + v;                                   // < 4q
        if (sum >= two_q) sum -= two_q;                    // < 2q
        x[j] = sum;
        y[j] = shoup_mul_lazy(u + two_q - v, w, w_shoup, q);  // < 2q
      }
    }
  }
}

void ntt_inverse_lazy_portable(const NttLayout& L, u64* a) {
  ntt_inverse_lazy_stages_portable(L, a, 0, L.log_n);
  // N^{-1} scaling with full reduction: lazy product < 2q, one conditional
  // subtraction lands on the canonical representative.
  const u64 q = L.q;
  for (std::size_t j = 0; j < L.n; ++j) {
    u64 v = shoup_mul_lazy(a[j], L.n_inv, L.n_inv_shoup, q);
    if (v >= q) v -= q;
    a[j] = v;
  }
}

void ntt_forward_lazy(const NttLayout& L, u64* a) {
  kernels_for(L.q).ntt_forward(L, a);
}

void ntt_inverse_lazy(const NttLayout& L, u64* a) {
  kernels_for(L.q).ntt_inverse(L, a);
}

}  // namespace abc::simd
