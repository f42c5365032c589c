#pragma once

/// @file kernels.hpp
/// One table of kernel entry points per tier, and the one function that
/// picks the table an op runs on.
///
/// Each tier fills a Kernels table in its own translation unit: the
/// portable table in simd_caps.cpp, the AVX2 table in kernels_avx2.cpp and
/// the AVX-512/IFMA table in kernels_avx512.cpp. A SIMD TU compiled without
/// its ISA flags (a non-x86 target, or a toolchain without -mavx512ifma)
/// has no table: its getter returns nullptr and simd_caps reports the tier
/// as not compiled, so it is never selected. The public entry points
/// (dyadic_kernels.hpp, ntt_kernels.hpp, chacha_kernels.hpp,
/// sampler_kernels.hpp, the double overloads of xf::CkksDwtPlan) each make
/// one call through kernels_for().

#include <cstddef>

#include "common/types.hpp"

namespace abc::rns {
class Modulus;
}

namespace abc::simd {

struct NttLayout;
struct DyadicModulus;
struct UniformModulus;
struct RejectCount;

/// Widest prime (bit count) the 52-bit IFMA multiply datapath accepts:
/// lazy values reach 4q and the Barrett quotient estimate 2q, both of
/// which must stay below 2^52.
inline constexpr int kIfmaMaxPrimeBits = 50;

/// Every op the library runs through the kernel layer, with the semantics
/// of the public entry point of the same name.
struct Kernels {
  void (*ntt_forward)(const NttLayout& L, u64* a);
  void (*ntt_inverse)(const NttLayout& L, u64* a);
  void (*chacha20_blocks)(const u32* key, u32 counter, const u32* nonce,
                          u8* out) noexcept;
  /// Complex double DWT butterflies; null means CkksDwtPlan's scalar
  /// template runs (the portable tier).
  void (*dwt_forward)(double* a, const double* twiddles, std::size_t n);
  void (*dwt_inverse)(double* a, const double* twiddles, std::size_t n);

  void (*add)(const DyadicModulus& m, u64* dst, const u64* src,
              std::size_t n);
  void (*sub)(const DyadicModulus& m, u64* dst, const u64* src,
              std::size_t n);
  void (*mul)(const DyadicModulus& m, u64* dst, const u64* src,
              std::size_t n);
  void (*negate)(const DyadicModulus& m, u64* dst, std::size_t n);
  void (*mul_scalar)(const DyadicModulus& m, u64* dst, std::size_t n, u64 s,
                     u64 s_shoup);
  void (*fma_accumulate)(const DyadicModulus& m, u64* acc0, u64* acc1,
                         const u64* digit, const u64* b, const u64* a,
                         const u32* perm, std::size_t n);
  void (*sub_mul_scalar)(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n, u64 s, u64 s_shoup);
  void (*fma_into)(const DyadicModulus& m, u64* out, const u64* base,
                   const u64* a, const u64* b, std::size_t n);
  void (*fms_into)(const DyadicModulus& m, u64* out, const u64* base,
                   const u64* a, const u64* b, std::size_t n);

  // Sampling and RNS expansion (sampler_kernels.hpp).
  RejectCount (*uniform_reject)(const UniformModulus& m, const u64* words,
                                std::size_t n_words, u64* out,
                                std::size_t n_out);
  void (*gaussian_cdt)(const u64* cdf, std::size_t count, const u64* words,
                       i32* out, std::size_t n);
  void (*lift_i8)(const rns::Modulus& q, u64* out, const i8* in,
                  const u64* add, std::size_t n);
  void (*lift_i32)(const rns::Modulus& q, u64* out, const i32* in,
                   const u64* add, std::size_t n);
  void (*lift_i64)(const rns::Modulus& q, u64* out, const i64* in,
                   const u64* add, std::size_t n);
};

/// The portable table; always present.
const Kernels& portable_kernels() noexcept;
/// The AVX2 table, or nullptr when kernels_avx2.cpp was compiled without
/// AVX2.
const Kernels* avx2_kernels() noexcept;
/// The AVX-512/IFMA table, or nullptr when kernels_avx512.cpp was compiled
/// without the AVX-512 flags. Its DWT entries are the AVX2 butterflies.
const Kernels* avx512ifma_kernels() noexcept;

/// The table every op on prime q runs on: the active tier's
/// (simd_caps.hpp), except that the AVX-512/IFMA tier hands primes of
/// 2^kIfmaMaxPrimeBits and above to the AVX2 table. Every kernel returns
/// canonical values, so the choice changes speed, never bits.
const Kernels& kernels_for(u64 q) noexcept;

/// The active tier's table, for ops that have no prime (ChaCha20, the
/// DWT, the Gaussian CDT).
inline const Kernels& active_kernels() noexcept { return kernels_for(0); }

}  // namespace abc::simd
