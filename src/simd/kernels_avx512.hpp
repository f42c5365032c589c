#pragma once

/// @file kernels_avx512.hpp
/// Internal declarations of the AVX-512/IFMA kernel entry points,
/// implemented in ntt_kernels_avx512.cpp / dyadic_kernels_avx512.cpp /
/// chacha_kernels_avx512.cpp (compiled with -mavx512f -mavx512dq
/// -mavx512ifma). Never call these directly — go through the dispatchers
/// in ntt_kernels.hpp / dyadic_kernels.hpp / chacha_kernels.hpp, which
/// check simd_caps AND, for the multiplying kernels, the 52-bit prime
/// constraint (DyadicModulus::ifma_ok / q < 2^50) first; the entry points
/// assume the constraint holds.
///
/// On builds whose toolchain rejects the AVX-512 flags the TUs compile
/// their #else branches, where every entry point forwards to the AVX2
/// kernel (any CPU passing the avx512ifma cpuid check also has AVX2), so
/// the symbols always exist and the dispatchers stay branch-simple.

#include <cstddef>

#include "common/types.hpp"

namespace abc::simd {

struct NttLayout;
struct DyadicModulus;

void ntt_forward_lazy_avx512(const NttLayout& L, u64* a);
void ntt_inverse_lazy_avx512(const NttLayout& L, u64* a);

void dyadic_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n);
void dyadic_sub_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n);
void dyadic_mul_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                       std::size_t n);
void dyadic_fma_avx512(const DyadicModulus& m, u64* dst, const u64* a,
                       const u64* b, std::size_t n);
void dyadic_negate_avx512(const DyadicModulus& m, u64* dst, std::size_t n);
void dyadic_mul_scalar_avx512(const DyadicModulus& m, u64* dst, std::size_t n,
                              u64 s, u64 s_shoup);
void dyadic_fma_accumulate_avx512(const DyadicModulus& m, u64* acc0, u64* acc1,
                                  const u64* digit, const u64* b, const u64* a,
                                  const u32* perm, std::size_t n);
void dyadic_negate_add_avx512(const DyadicModulus& m, u64* dst, const u64* src,
                              std::size_t n);
void dyadic_sub_mul_scalar_avx512(const DyadicModulus& m, u64* dst,
                                  const u64* src, std::size_t n, u64 s,
                                  u64 s_shoup);
void dyadic_fma_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n);
void dyadic_fms_into_avx512(const DyadicModulus& m, u64* out, const u64* base,
                            const u64* a, const u64* b, std::size_t n);

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out) noexcept;

}  // namespace abc::simd
