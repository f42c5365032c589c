#pragma once

/// @file dwt_kernels.hpp
/// AVX2 butterflies for the complex double DWT of CKKS encode/decode
/// (transform/dwt.hpp). The AVX2 and AVX-512/IFMA kernel tables
/// (kernels.hpp) both carry them; the portable table has none, and
/// CkksDwtPlan then runs its own scalar template, which also serves the
/// Rounded (FP55) type. There is no 512-bit version: one measured ~10%
/// faster on the forward transform alone and no faster, within run-to-run
/// noise, on a whole decode.
///
/// ## Same bits on every tier
///
/// Each lane performs exactly the scalar butterfly's IEEE operations on the
/// same operands: the complex product is (vr*wr - vi*wi, vi*wr + vr*wi),
/// and the sum and difference follow, with the inverse's 1/N scaling a
/// separate multiply. Reordering a commutative operation leaves the
/// result unchanged, so only contraction could change a bit: these TUs
/// (and transform/dwt.cpp, where the portable tier is instantiated) are
/// compiled with -ffp-contract=off, and none may use an FMA.
///
/// ## Layout
///
/// `a` holds n complex points as interleaved (re, im) doubles; `twiddles`
/// holds the plan's n bit-reversed powers psi_rev in the same layout, for
/// both directions: the inverse uses conj(psi_rev[m + i]), flipping the
/// sign bit of each imaginary part as it loads it (an XOR with -0.0, the
/// negation the scalar template's Cx::conj performs, so signed zeros match
/// too). Stages whose butterflies span a whole vector (two points) run on a
/// broadcast twiddle; the one-point stage pairs neighbouring butterflies
/// with in-register shuffles.
/// n must be a power of two >= 4.

#include <cstddef>

namespace abc::simd {

/// In-place forward DWT (natural -> bit-reversed), Cooley-Tukey.
void dwt_forward_avx2(double* a, const double* twiddles, std::size_t n);

/// In-place inverse DWT (bit-reversed -> natural), Gentleman-Sande,
/// including the 1/N scaling.
void dwt_inverse_avx2(double* a, const double* twiddles, std::size_t n);

}  // namespace abc::simd
