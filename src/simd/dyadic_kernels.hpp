#pragma once

/// @file dyadic_kernels.hpp
/// Batched element-wise (dyadic) modular kernels over one RNS limb, with
/// portable, AVX2, and AVX-512/IFMA implementations in the per-tier kernel
/// tables (kernels.hpp).
///
/// The seed code reduced every product with Modulus::reduce_128 — a
/// two-word Barrett using floor(2^128/q) that costs ~5 wide multiplies per
/// element. These kernels hoist a single-word *shifted* Barrett constant
/// per limb instead:
///
///     shift = bit_count(q) - 1,   ratio = floor(2^(64+shift) / q)
///     z    = a * b                       (z < q^2)
///     zh   = z >> shift                  (fits in 64 bits: zh < 2q)
///     qhat = mulhi(zh, ratio)            (qhat in [Q-2, Q], Q = floor(z/q))
///     r    = lo64(z) - qhat * q          (r < 3q; <= 2 corrections)
///
/// which is 3 wide multiplies and vectorizes (the AVX2 path assembles the
/// 64x64 products from _mm256_mul_epu32 partials; the AVX-512/IFMA path
/// runs the same recurrence in base 2^52 on vpmadd52 with ratio52 =
/// ratio >> 12, see avx512_math.hpp). Scalar-by-vector products use a
/// Shoup pair instead (1 mulhi + 2 mullo). All kernels return canonical
/// [0, q) values, bit-identical to the seed's Modulus::add/sub/mul results
/// on every tier.
///
/// ## Fused passes
///
/// The hot paths above this layer chain adjacent dyadic ops over the same
/// buffers (gadget accumulation: permute + fma + fma; encrypt and keygen
/// combines: mul + negate + add; mod-down and rescale tails: sub +
/// mul_scalar; decrypt phase: copy + fma). Each
/// chain re-streams its operands from memory once per op, and these loops
/// are memory-bound — so the fused kernels below collapse each chain into
/// a single pass (EFFACT's instruction-fusion argument applied at this
/// seam):
///
///   * dyadic_fma_accumulate — acc0 += digit.b, acc1 += digit.a with one
///     load of `digit` per element, optionally gathered through an
///     evaluation-domain permutation (the hoisted-rotation inner loop);
///   * dyadic_sub_mul_scalar — dst = (dst - src) * s, Shoup scalar;
///   * dyadic_fma_into      — out = base + a*b (out-of-place, no
///     separate copy pass; with out == base it is the in-place fma);
///   * dyadic_fms_into      — out = base - a*b, the symmetric-encrypt
///     combine c0 = (m+e) - a*s without staging a*s or copying a.
///
/// Fused results are bit-identical to the unfused chains (same per-element
/// operation order, canonical outputs).
///
/// ## IFMA prime constraint
///
/// The 52-bit multiply kernels require lazy 2q/4q-representatives and the
/// shifted quotient zh < 2q to fit 52-bit operands, i.e. prime bit-count
/// <= kIfmaMaxPrimeBits (50). kernels_for(q) (kernels.hpp) applies that
/// rule for every op: on the AVX-512/IFMA tier a wider prime runs the AVX2
/// table.

#include <cstddef>

#include "common/types.hpp"

namespace abc::rns {
class Modulus;
}

namespace abc::simd {

/// Per-limb word constants the dyadic kernels run on. Cheap to build (one
/// 128-bit division) but built exactly once per limb per context
/// (PolyContext::dyadic); transient call sites may still make their own.
struct DyadicModulus {
  u64 q = 0;
  u64 two_q = 0;
  u64 ratio = 0;    // floor(2^(64+shift) / q)
  u64 ratio52 = 0;  // ratio >> 12 == floor(2^(52+shift) / q), IFMA tier
  int shift = 0;    // bit_count(q) - 1

  /// Requires a non-power-of-two modulus (all NTT primes qualify) so the
  /// shifted ratio fits in one word.
  static DyadicModulus make(const rns::Modulus& q);

  /// Canonical dyadic product via the shifted Barrett constant.
  u64 mul(u64 a, u64 b) const noexcept {
    const u128 z = mul_wide(a, b);
    const u64 zh = static_cast<u64>(z >> shift);
    const u64 qhat = mul_hi(zh, ratio);
    u64 r = lo64(z) - qhat * q;
    if (r >= two_q) r -= two_q;
    if (r >= q) r -= q;
    return r;
  }
};

/// dst[j] = dst[j] + src[j] (mod q); inputs and outputs canonical.
void dyadic_add(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n);
/// dst[j] = dst[j] - src[j] (mod q).
void dyadic_sub(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n);
/// dst[j] = dst[j] * src[j] (mod q).
void dyadic_mul(const DyadicModulus& m, u64* dst, const u64* src,
                std::size_t n);
/// dst[j] = -dst[j] (mod q).
void dyadic_negate(const DyadicModulus& m, u64* dst, std::size_t n);
/// dst[j] = dst[j] * s (mod q); s must be reduced (< q), s_shoup its Shoup
/// quotient floor(s * 2^64 / q).
void dyadic_mul_scalar(const DyadicModulus& m, u64* dst, std::size_t n, u64 s,
                       u64 s_shoup);

// -- fused passes ------------------------------------------------------------

/// Gadget-accumulation inner loop, one pass: with d_j = digit[perm[j]]
/// (or digit[j] when perm is null),
///     acc0[j] += d_j * b[j]   (mod q)
///     acc1[j] += d_j * a[j]   (mod q)
/// Replaces the permute-into-scratch + two in-place fma sweeps of the
/// unfused chain: the digit is loaded (or gathered) once and never staged
/// through memory. perm must hold indices < n.
void dyadic_fma_accumulate(const DyadicModulus& m, u64* acc0, u64* acc1,
                           const u64* digit, const u64* b, const u64* a,
                           const u32* perm, std::size_t n);

/// dst[j] = (dst[j] - src[j]) * s (mod q), Shoup scalar — the fused
/// mod-down / rescale tail (c = (c - tmp) * P^{-1}).
void dyadic_sub_mul_scalar(const DyadicModulus& m, u64* dst, const u64* src,
                           std::size_t n, u64 s, u64 s_shoup);

/// out[j] = base[j] + a[j] * b[j] (mod q) — the fused form of copy-then-
/// fma (phase = c0 + c1*s in decrypt), and with out == base the in-place
/// fma (c0 += b*u in public-key encrypt). out must not alias a or b; out
/// may equal base.
void dyadic_fma_into(const DyadicModulus& m, u64* out, const u64* base,
                     const u64* a, const u64* b, std::size_t n);

/// out[j] = base[j] - a[j] * b[j] (mod q) — the fused form of mul, negate
/// and add (c0 = -(a*s) + (m+e) in symmetric encrypt, b = -(a*s) + e in
/// public-key generation). out must not alias a or b; out may equal base.
void dyadic_fms_into(const DyadicModulus& m, u64* out, const u64* base,
                     const u64* a, const u64* b, std::size_t n);

// -- portable kernels (the portable table's entries; exposed for parity
//    tests) ---------------------------------------------------------------

void dyadic_add_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n);
void dyadic_sub_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n);
void dyadic_mul_portable(const DyadicModulus& m, u64* dst, const u64* src,
                         std::size_t n);
void dyadic_negate_portable(const DyadicModulus& m, u64* dst, std::size_t n);
void dyadic_mul_scalar_portable(const DyadicModulus& m, u64* dst,
                                std::size_t n, u64 s, u64 s_shoup);
void dyadic_fma_accumulate_portable(const DyadicModulus& m, u64* acc0,
                                    u64* acc1, const u64* digit, const u64* b,
                                    const u64* a, const u32* perm,
                                    std::size_t n);
void dyadic_sub_mul_scalar_portable(const DyadicModulus& m, u64* dst,
                                    const u64* src, std::size_t n, u64 s,
                                    u64 s_shoup);
void dyadic_fma_into_portable(const DyadicModulus& m, u64* out,
                              const u64* base, const u64* a, const u64* b,
                              std::size_t n);
void dyadic_fms_into_portable(const DyadicModulus& m, u64* out,
                              const u64* base, const u64* a, const u64* b,
                              std::size_t n);

}  // namespace abc::simd
