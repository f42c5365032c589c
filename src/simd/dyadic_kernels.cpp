#include "simd/dyadic_kernels.hpp"

#include "common/check.hpp"
#include "rns/modulus.hpp"
#include "simd/kernels.hpp"

namespace abc::simd {

DyadicModulus DyadicModulus::make(const rns::Modulus& q) {
  const u64 qv = q.value();
  ABC_CHECK_ARG((qv & (qv - 1)) != 0,
                "dyadic kernels require a non-power-of-two modulus");
  DyadicModulus m;
  m.q = qv;
  m.two_q = 2 * qv;
  m.shift = q.bit_count() - 1;
  // q > 2^shift strictly (q is not a power of two), so the ratio fits.
  m.ratio = static_cast<u64>((static_cast<u128>(1) << (64 + m.shift)) / qv);
  // floor(ratio / 2^12) == floor(2^(52+shift) / q): exact, no re-division.
  m.ratio52 = m.ratio >> 12;
  return m;
}

void dyadic_add_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n) {
  // Sign-mask form (see the note above the fused loops): the sum is below
  // 2q < 2^63, so the top bit of sum - q says whether to add q back.
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 t = dst[j] + src[j] - q;
    dst[j] = t + (q & static_cast<u64>(static_cast<i64>(t) >> 63));
  }
}

void dyadic_sub_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n) {
  // Sign-mask form (see the note above the fused loops): the wrapped
  // difference's top bit is the borrow, so no branch on random residues.
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 t = dst[j] - src[j];
    dst[j] = t + (q & static_cast<u64>(static_cast<i64>(t) >> 63));
  }
}

void dyadic_mul_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = m.mul(dst[j], src[j]);
}

void dyadic_negate_portable(const DyadicModulus& m, u64* dst, std::size_t n) {
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 v = dst[j];
    dst[j] = v == 0 ? 0 : q - v;
  }
}

void dyadic_mul_scalar_portable(const DyadicModulus& m, u64* dst,
                                std::size_t n, u64 s, u64 s_shoup) {
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    u64 r = dst[j] * s - mul_hi(dst[j], s_shoup) * q;  // lazy, < 2q
    if (r >= q) r -= q;
    dst[j] = r;
  }
}

// The fused portable loops below use sign-bit mask arithmetic instead of
// ternaries: for x < 2^63 the borrow/overflow condition IS the top bit of
// the wrapped difference, so `t + (q & (i64(t) >> 63))` canonicalizes
// without any compare. Ring operands are canonical (< q < 2^62), so the
// precondition always holds. Two wins over the conditional forms: the
// operands are uniformly random, so a conditional branch mispredicts ~50%
// of the time, and the compare-free shape is one GCC auto-vectorizes at
// the baseline ISA (64-bit compares are not portably vectorizable, shifts
// and masks are). The results are bit-identical to the unfused chains.

void dyadic_fma_accumulate_portable(const DyadicModulus& m, u64* acc0,
                                    u64* acc1, const u64* digit, const u64* b,
                                    const u64* a, const u32* perm,
                                    std::size_t n) {
  // Block-staged: the permutation gather lands in an L1-resident scratch
  // block and both fma passes consume it immediately, instead of staging
  // the whole ring through a full-size temporary as the unfused chain
  // does.
  constexpr std::size_t kBlock = 2048;
  u64 tmp[kBlock];
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t len = j0 + kBlock <= n ? kBlock : n - j0;
    const u64* d = digit + j0;
    if (perm != nullptr) {
      for (std::size_t j = 0; j < len; ++j) tmp[j] = digit[perm[j0 + j]];
      d = tmp;
    }
    dyadic_fma_into_portable(m, acc0 + j0, acc0 + j0, d, b + j0, len);
    dyadic_fma_into_portable(m, acc1 + j0, acc1 + j0, d, a + j0, len);
  }
}

void dyadic_sub_mul_scalar_portable(const DyadicModulus& m, u64* dst,
                                    const u64* src, std::size_t n, u64 s,
                                    u64 s_shoup) {
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 d = dst[j] - src[j];
    const u64 t = d + (q & static_cast<u64>(static_cast<i64>(d) >> 63));
    const u64 r = t * s - mul_hi(t, s_shoup) * q;  // lazy, < 2q
    const u64 c = r - q;
    dst[j] = c + (q & static_cast<u64>(static_cast<i64>(c) >> 63));
  }
}

void dyadic_fma_into_portable(const DyadicModulus& m, u64* out,
                              const u64* base, const u64* a, const u64* b,
                              std::size_t n) {
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 s = base[j] + m.mul(a[j], b[j]);
    const u64 c = s - q;
    out[j] = c + (q & static_cast<u64>(static_cast<i64>(c) >> 63));
  }
}

void dyadic_fms_into_portable(const DyadicModulus& m, u64* out,
                              const u64* base, const u64* a, const u64* b,
                              std::size_t n) {
  const u64 q = m.q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 t = base[j] - m.mul(a[j], b[j]);
    out[j] = t + (q & static_cast<u64>(static_cast<i64>(t) >> 63));
  }
}

void dyadic_add(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n) {
  kernels_for(m.q).add(m, dst, src, n);
}

void dyadic_sub(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n) {
  kernels_for(m.q).sub(m, dst, src, n);
}

void dyadic_mul(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n) {
  kernels_for(m.q).mul(m, dst, src, n);
}

void dyadic_negate(const DyadicModulus& m, u64* dst, std::size_t n) {
  kernels_for(m.q).negate(m, dst, n);
}

void dyadic_mul_scalar(const DyadicModulus& m, u64* dst, std::size_t n, u64 s,
                       u64 s_shoup) {
  kernels_for(m.q).mul_scalar(m, dst, n, s, s_shoup);
}

void dyadic_fma_accumulate(const DyadicModulus& m, u64* acc0, u64* acc1,
                           const u64* digit, const u64* b, const u64* a,
                           const u32* perm, std::size_t n) {
  kernels_for(m.q).fma_accumulate(m, acc0, acc1, digit, b, a, perm, n);
}

void dyadic_sub_mul_scalar(const DyadicModulus& m, u64* dst, const u64* src,
                           std::size_t n, u64 s, u64 s_shoup) {
  kernels_for(m.q).sub_mul_scalar(m, dst, src, n, s, s_shoup);
}

void dyadic_fma_into(const DyadicModulus& m, u64* out, const u64* base,
                     const u64* a, const u64* b, std::size_t n) {
  kernels_for(m.q).fma_into(m, out, base, a, b, n);
}

void dyadic_fms_into(const DyadicModulus& m, u64* out, const u64* base,
                     const u64* a, const u64* b, std::size_t n) {
  kernels_for(m.q).fms_into(m, out, base, a, b, n);
}

}  // namespace abc::simd
