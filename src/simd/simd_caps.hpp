#pragma once

/// @file simd_caps.hpp
/// Runtime kernel-architecture selection for the src/simd/ kernel layer.
///
/// Three kernel tiers exist for the client hot path (NTT butterflies, the
/// batched dyadic ops, ChaCha20, the double DWT): a portable C++ set that
/// compiles everywhere, an AVX2 set, and an AVX-512/IFMA set (8-lane
/// butterflies, 52-bit `vpmadd52` modular multiplies). Each tier is one
/// table of kernel entry points (kernels.hpp); the SIMD tables live in
/// translation units compiled with -mavx2 / -mavx512ifma and exist only
/// when those flags were given. The active tier is picked at runtime via
/// cpuid, once per process:
///
///   * if the environment variable ABC_FORCE_PORTABLE_KERNELS is set to
///     anything but "0", the portable kernels are used unconditionally
///     (escape hatch for testing and for ruling the SIMD path out when
///     debugging);
///   * if ABC_DISABLE_AVX512_KERNELS is set to anything but "0", the
///     AVX-512 tier alone is vetoed (the AVX2 tier still dispatches) —
///     the per-tier counterpart of the portable escape hatch;
///   * otherwise the highest tier both compiled in AND reported by cpuid
///     wins: AVX-512/IFMA over AVX2 over portable;
///   * tests and benches may override the choice in-process through
///     set_kernel_arch_for_testing() to exercise every path regardless of
///     the host environment.
///
/// Whatever the arch, results are bit-identical: every kernel fully reduces
/// its outputs to the canonical [0, q) representatives, so the choice is
/// invisible to everything above the kernel layer. The IFMA kernels
/// additionally require lazy 4q-representatives to fit the 52-bit
/// multiplier datapath (prime bit-count <= 50): kernels_for(q)
/// (kernels.hpp), the one function that turns the active arch into a
/// table, hands wider primes the AVX2 table without leaving the AVX-512
/// tier.

namespace abc::simd {

enum class KernelArch {
  kPortable,    // plain C++ kernels, any target
  kAvx2,        // AVX2 intrinsics, runtime-detected
  kAvx512Ifma,  // AVX-512F/DQ/IFMA intrinsics, runtime-detected
};

/// True when the AVX2 kernel table was compiled in (x86-64 build).
bool avx2_compiled() noexcept;

/// True when the running CPU supports AVX2 (false on non-x86 builds).
bool avx2_supported() noexcept;

/// True when the AVX2 kernels may actually be selected: supported by the
/// host AND not vetoed by ABC_FORCE_PORTABLE_KERNELS. The escape hatch is
/// absolute — it also blocks in-process overrides — so tests and benches
/// gate their AVX2 passes on this, not on avx2_supported().
bool avx2_selectable() noexcept;

/// True when the AVX-512/IFMA kernel table was compiled in (x86-64 build
/// with a toolchain that accepts -mavx512ifma).
bool avx512ifma_compiled() noexcept;

/// True when the running CPU supports the AVX-512 subsets the tier uses
/// (F + DQ + IFMA) and the AVX2 tier, whose table serves wide primes and
/// the DWT; false on non-x86 builds.
bool avx512ifma_supported() noexcept;

/// True when the AVX-512/IFMA kernels may actually be selected: supported
/// by the host AND vetoed by neither ABC_FORCE_PORTABLE_KERNELS nor
/// ABC_DISABLE_AVX512_KERNELS. Both vetoes also block in-process
/// overrides, so tests and benches gate their AVX-512 passes on this.
bool avx512ifma_selectable() noexcept;

/// The arch kernels_for() currently routes to. Resolved once from cpuid
/// and the env vetoes, unless overridden for testing.
KernelArch active_kernel_arch() noexcept;

/// Overrides the active arch. Requests for a tier that is not selectable
/// (unavailable hardware, or an env veto) are ignored, so the override can
/// never select an illegal or vetoed path. Passing the detected default
/// re-enables normal behavior.
void set_kernel_arch_for_testing(KernelArch arch) noexcept;

/// The arch detection would pick with no override (env vetoes included).
KernelArch detected_kernel_arch() noexcept;

const char* kernel_arch_name(KernelArch arch) noexcept;

}  // namespace abc::simd
