#include "simd/simd_caps.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "simd/chacha_kernels.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/kernels.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/sampler_kernels.hpp"

namespace abc::simd {

namespace {

constexpr Kernels kPortable = {
    .ntt_forward = ntt_forward_lazy_portable,
    .ntt_inverse = ntt_inverse_lazy_portable,
    .chacha20_blocks = chacha20_blocks_portable,
    .dwt_forward = nullptr,
    .dwt_inverse = nullptr,
    .add = dyadic_add_portable,
    .sub = dyadic_sub_portable,
    .mul = dyadic_mul_portable,
    .negate = dyadic_negate_portable,
    .mul_scalar = dyadic_mul_scalar_portable,
    .fma_accumulate = dyadic_fma_accumulate_portable,
    .sub_mul_scalar = dyadic_sub_mul_scalar_portable,
    .fma_into = dyadic_fma_into_portable,
    .fms_into = dyadic_fms_into_portable,
    .uniform_reject = uniform_reject_portable,
    .gaussian_cdt = gaussian_cdt_portable,
    .lift_i8 = lift_signed_portable<i8>,
    .lift_i32 = lift_signed_portable<i32>,
    .lift_i64 = lift_signed_portable<i64>,
};

}  // namespace

const Kernels& portable_kernels() noexcept { return kPortable; }

bool avx2_compiled() noexcept { return avx2_kernels() != nullptr; }

bool avx512ifma_compiled() noexcept { return avx512ifma_kernels() != nullptr; }

// __builtin_cpu_supports is a GCC/Clang builtin; other toolchains fall
// back to portable kernels.

bool avx2_supported() noexcept {
#if defined(__x86_64__) && defined(__GNUC__)
  return avx2_compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool avx512ifma_supported() noexcept {
#if defined(__x86_64__) && defined(__GNUC__)
  // F for the 512-bit integer core, DQ for vpmullq, IFMA for vpmadd52.
  // The tier also runs the AVX2 table (wide primes, the DWT), which every
  // IFMA CPU supports.
  return avx512ifma_compiled() && avx2_supported() &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

namespace {

bool env_set(const char* name) noexcept {
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "0") != 0;
}

bool force_portable_env() noexcept {
  return env_set("ABC_FORCE_PORTABLE_KERNELS");
}

bool disable_avx512_env() noexcept {
  return env_set("ABC_DISABLE_AVX512_KERNELS");
}

std::atomic<KernelArch>& active_slot() noexcept {
  static std::atomic<KernelArch> slot{detected_kernel_arch()};
  return slot;
}

bool arch_selectable(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kPortable:
      return true;
    case KernelArch::kAvx2:
      return avx2_selectable();
    case KernelArch::kAvx512Ifma:
      return avx512ifma_selectable();
  }
  return false;
}

}  // namespace

bool avx2_selectable() noexcept {
  return avx2_supported() && !force_portable_env();
}

bool avx512ifma_selectable() noexcept {
  return avx512ifma_supported() && !force_portable_env() &&
         !disable_avx512_env();
}

KernelArch detected_kernel_arch() noexcept {
  if (avx512ifma_selectable()) return KernelArch::kAvx512Ifma;
  return avx2_selectable() ? KernelArch::kAvx2 : KernelArch::kPortable;
}

const Kernels& kernels_for(u64 q) noexcept {
  switch (active_kernel_arch()) {
    case KernelArch::kAvx512Ifma:
      if (q < (u64{1} << kIfmaMaxPrimeBits)) return *avx512ifma_kernels();
      [[fallthrough]];
    case KernelArch::kAvx2:
      return *avx2_kernels();
    case KernelArch::kPortable:
      break;
  }
  return kPortable;
}

KernelArch active_kernel_arch() noexcept {
  return active_slot().load(std::memory_order_relaxed);
}

void set_kernel_arch_for_testing(KernelArch arch) noexcept {
  if (!arch_selectable(arch)) return;
  active_slot().store(arch, std::memory_order_relaxed);
}

const char* kernel_arch_name(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kPortable:
      return "portable";
    case KernelArch::kAvx2:
      return "avx2";
    case KernelArch::kAvx512Ifma:
      return "avx512ifma";
  }
  return "unknown";
}

}  // namespace abc::simd
