// Tests for the src/simd/ kernel layer: bit-exact parity of the Harvey
// lazy-reduction NTT against the seed eager kernels across sparse-prime bit
// widths, SIMD vs. portable dyadic and signed-lift parity, randomized
// negacyclic
// cross-checks against the schoolbook reference, and the lazy-bound
// invariants (< 4q forward / < 2q inverse) the kernels rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "rns/modulus.hpp"
#include "rns/ntt_prime.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/kernels.hpp"
#include "simd/ntt_kernels.hpp"
#include "simd/sampler_kernels.hpp"
#include "simd/simd_caps.hpp"
#include "transform/ntt.hpp"

namespace abc {
namespace {

/// Restores the detected kernel arch when a test that forces one exits.
struct ArchGuard {
  ~ArchGuard() {
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }
};

std::vector<u64> random_poly(std::size_t n, u64 q, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<u64> a(n);
  for (u64& v : a) v = rng() % q;
  return a;
}

/// All kernel arches exercisable in this process (portable always; the
/// SIMD tiers when the build and CPU support them AND no env veto —
/// ABC_FORCE_PORTABLE_KERNELS / ABC_DISABLE_AVX512_KERNELS block
/// in-process overrides too).
std::vector<simd::KernelArch> available_arches() {
  std::vector<simd::KernelArch> arches = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) arches.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable())
    arches.push_back(simd::KernelArch::kAvx512Ifma);
  return arches;
}

TEST(SimdCaps, ForcingUnselectableArchIsIgnored) {
  ArchGuard guard;
  simd::set_kernel_arch_for_testing(simd::KernelArch::kPortable);
  EXPECT_EQ(simd::active_kernel_arch(), simd::KernelArch::kPortable);
  simd::set_kernel_arch_for_testing(simd::KernelArch::kAvx2);
  if (simd::avx2_selectable()) {
    EXPECT_EQ(simd::active_kernel_arch(), simd::KernelArch::kAvx2);
  } else {
    // Unsupported host or ABC_FORCE_PORTABLE_KERNELS veto.
    EXPECT_EQ(simd::active_kernel_arch(), simd::KernelArch::kPortable);
  }
}

TEST(SimdCaps, ArchNamesAreStable) {
  EXPECT_STREQ(simd::kernel_arch_name(simd::KernelArch::kPortable),
               "portable");
  EXPECT_STREQ(simd::kernel_arch_name(simd::KernelArch::kAvx2), "avx2");
  EXPECT_STREQ(simd::kernel_arch_name(simd::KernelArch::kAvx512Ifma),
               "avx512ifma");
}

TEST(SimdCaps, Avx512SelectionImpliesSupport) {
  // selectable => supported => compiled; the detected arch is always
  // selectable.
  if (simd::avx512ifma_selectable()) {
    EXPECT_TRUE(simd::avx512ifma_supported());
    EXPECT_TRUE(simd::avx512ifma_compiled());
  }
  ArchGuard guard;
  simd::set_kernel_arch_for_testing(simd::KernelArch::kAvx512Ifma);
  if (simd::avx512ifma_selectable()) {
    EXPECT_EQ(simd::active_kernel_arch(), simd::KernelArch::kAvx512Ifma);
  } else {
    EXPECT_NE(simd::active_kernel_arch(), simd::KernelArch::kAvx512Ifma);
  }
}

// -- NTT parity --------------------------------------------------------------

TEST(LazyNtt, MatchesEagerAcrossSparsePrimeBitWidths) {
  ArchGuard guard;
  const int log_n = 10;
  for (int bits = 32; bits <= 36; ++bits) {
    const rns::Modulus q(rns::select_prime_chain(bits, log_n, 1)[0]);
    ASSERT_EQ(q.bit_count(), bits);
    const xf::NttTables tables(q, log_n);
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      std::vector<u64> eager = random_poly(tables.n(), q.value(), bits);
      std::vector<u64> lazy = eager;
      tables.forward_eager(eager);
      tables.forward(lazy);
      EXPECT_EQ(eager, lazy) << "forward, bits=" << bits << " arch="
                             << simd::kernel_arch_name(arch);
      tables.inverse_eager(eager);
      tables.inverse(lazy);
      EXPECT_EQ(eager, lazy) << "inverse, bits=" << bits << " arch="
                             << simd::kernel_arch_name(arch);
    }
  }
}

TEST(LazyNtt, MatchesEagerAtLargeDegreeAndWideModulus) {
  ArchGuard guard;
  // A wide (59-bit) generic NTT prime stresses the 4q < 2^64 headroom.
  for (int bits : {45, 59}) {
    const int log_n = 13;
    const rns::Modulus q(rns::select_prime_chain(bits, log_n, 1)[0]);
    const xf::NttTables tables(q, log_n);
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      std::vector<u64> eager = random_poly(tables.n(), q.value(), 77);
      std::vector<u64> lazy = eager;
      tables.forward_eager(eager);
      tables.forward(lazy);
      EXPECT_EQ(eager, lazy) << "bits=" << bits;
      tables.inverse_eager(eager);
      tables.inverse(lazy);
      EXPECT_EQ(eager, lazy) << "bits=" << bits;
    }
  }
}

TEST(LazyNtt, RegisterTailMatchesEagerAtEveryDegree) {
  ArchGuard guard;
  // The SIMD tiers run their narrowest stages as a register tail over
  // sixteen-word (AVX-512/IFMA) or eight-word (AVX2) blocks and fall back
  // to the portable code below one block: log_n 1-3 take the fallback,
  // 4 is a single IFMA block, 5 two. A 36-bit and the widest IFMA prime;
  // all-(q-1) inputs push the lazy bounds to their extremes.
  for (int bits : {36, simd::kIfmaMaxPrimeBits}) {
    const rns::Modulus q(rns::select_prime_chain(bits, 17, 1)[0]);
    ASSERT_EQ(q.bit_count(), bits);
    for (int log_n = 1; log_n <= 17; ++log_n) {
      const xf::NttTables tables(q, log_n);
      const std::vector<std::vector<u64>> inputs = {
          random_poly(tables.n(), q.value(), 1000 + log_n),
          std::vector<u64>(tables.n(), q.value() - 1)};
      for (const std::vector<u64>& input : inputs) {
        std::vector<u64> fwd = input;
        tables.forward_eager(fwd);
        std::vector<u64> inv = input;
        tables.inverse_eager(inv);
        for (simd::KernelArch arch : available_arches()) {
          simd::set_kernel_arch_for_testing(arch);
          std::vector<u64> a = input;
          tables.forward(a);
          EXPECT_EQ(a, fwd) << "forward, bits=" << bits << " log_n="
                            << log_n << " arch="
                            << simd::kernel_arch_name(arch);
          a = input;
          tables.inverse(a);
          EXPECT_EQ(a, inv) << "inverse, bits=" << bits << " log_n="
                            << log_n << " arch="
                            << simd::kernel_arch_name(arch);
        }
      }
    }
  }
}

TEST(LazyNtt, TinyDegreesRoundtrip) {
  ArchGuard guard;
  // log_n in {1, 2, 3} is below one sixteen-word IFMA tail block, so that
  // tier runs the portable code here; AVX2 does too at log_n 1 and 2, and
  // runs one eight-word tail block at 3.
  for (int log_n : {1, 2, 3}) {
    const rns::Modulus q(rns::select_prime_chain(36, 5, 1)[0]);
    const xf::NttTables tables(q, log_n);
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      std::vector<u64> a = random_poly(tables.n(), q.value(), 5);
      const std::vector<u64> original = a;
      tables.forward(a);
      tables.inverse(a);
      EXPECT_EQ(a, original) << "log_n=" << log_n;
    }
  }
}

TEST(LazyNtt, NegacyclicConvolutionMatchesSchoolbook) {
  ArchGuard guard;
  for (int log_n : {3, 6, 8}) {
    const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
    const xf::NttTables tables(q, log_n);
    std::mt19937_64 rng(100 + log_n);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<u64> a = random_poly(tables.n(), q.value(), rng());
      const std::vector<u64> b = random_poly(tables.n(), q.value(), rng());
      const std::vector<u64> expected =
          xf::negacyclic_mult_schoolbook(a, b, q);
      for (simd::KernelArch arch : available_arches()) {
        simd::set_kernel_arch_for_testing(arch);
        std::vector<u64> fa = a;
        std::vector<u64> fb = b;
        tables.forward(fa);
        tables.forward(fb);
        std::vector<u64> c(tables.n());
        const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
        for (std::size_t i = 0; i < c.size(); ++i)
          c[i] = dm.mul(fa[i], fb[i]);
        tables.inverse(c);
        EXPECT_EQ(c, expected)
            << "log_n=" << log_n << " trial=" << trial
            << " arch=" << simd::kernel_arch_name(arch);
      }
    }
  }
}

// -- lazy-bound invariants ---------------------------------------------------

TEST(LazyNtt, ForwardIntermediatesStayBelow4q) {
  const int log_n = 9;
  const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
  const xf::NttTables tables(q, log_n);
  const simd::NttLayout L = tables.layout();
  std::vector<u64> a = random_poly(tables.n(), q.value(), 31);
  for (int stage = 0; stage < log_n; ++stage) {
    simd::ntt_forward_lazy_stages_portable(L, a.data(), stage, stage + 1);
    const u64 max_v = *std::max_element(a.begin(), a.end());
    EXPECT_LT(max_v, 4 * q.value()) << "after stage " << stage;
  }
  // The correction pass lands every value in [0, q) and matches eager.
  simd::reduce_from_4q_portable(a.data(), a.size(), q.value());
  std::vector<u64> eager = random_poly(tables.n(), q.value(), 31);
  tables.forward_eager(eager);
  EXPECT_EQ(a, eager);
}

TEST(LazyNtt, InverseIntermediatesStayBelow2q) {
  const int log_n = 9;
  const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
  const xf::NttTables tables(q, log_n);
  const simd::NttLayout L = tables.layout();
  std::vector<u64> a = random_poly(tables.n(), q.value(), 32);
  for (int stage = 0; stage < log_n; ++stage) {
    simd::ntt_inverse_lazy_stages_portable(L, a.data(), stage, stage + 1);
    const u64 max_v = *std::max_element(a.begin(), a.end());
    EXPECT_LT(max_v, 2 * q.value()) << "after stage " << stage;
  }
}

TEST(LazyNtt, ShoupMulLazyStaysBelow2q) {
  const rns::Modulus q(rns::select_prime_chain(36, 10, 1)[0]);
  std::mt19937_64 rng(33);
  for (int trial = 0; trial < 2000; ++trial) {
    const u64 w = rng() % q.value();
    const rns::ShoupMul s = rns::ShoupMul::make(w, q);
    const u64 x = rng();  // ANY 64-bit input is in-contract
    const u64 lazy = s.mul_lazy(x, q.value());
    EXPECT_LT(lazy, 2 * q.value());
    EXPECT_EQ(lazy % q.value(), q.mul(q.reduce(x), w));
    EXPECT_EQ(s.mul(x, q.value()), lazy >= q.value() ? lazy - q.value()
                                                     : lazy);
  }
}

// -- signed lift (RNS expansion) ---------------------------------------------

/// The kernel tables of every tier selectable in this process.
std::vector<const simd::Kernels*> available_tables() {
  std::vector<const simd::Kernels*> tables = {&simd::portable_kernels()};
  if (simd::avx2_selectable()) tables.push_back(simd::avx2_kernels());
  if (simd::avx512ifma_selectable())
    tables.push_back(simd::avx512ifma_kernels());
  return tables;
}

/// Random words in [-q, q) clamped to I's range, with fallback cases at
/// fixed slots: a block of eight (two AVX2 blocks) with exactly one word
/// out of range, I's extremes, and the words around +-q.
template <class I>
std::vector<I> lift_inputs(u64 q, std::mt19937_64& rng) {
  constexpr i64 kMin = std::numeric_limits<I>::min();
  constexpr i64 kMax = std::numeric_limits<I>::max();
  const auto clamp = [&](i64 x) {
    return static_cast<I>(std::clamp(x, kMin, kMax));
  };
  const i64 sq = static_cast<i64>(q);
  std::vector<I> in(203);  // odd length: every tier runs its tail too
  for (I& x : in) x = clamp(static_cast<i64>(rng() % (2 * q)) - sq);
  for (std::size_t j = 16; j < 24; ++j) in[j] = clamp(sq / 2 - 1);
  in[19] = clamp(sq);  // the only out-of-range word of its block
  in[32] = static_cast<I>(kMin);
  in[41] = static_cast<I>(kMax);
  in[50] = clamp(-sq - 1);
  in[51] = clamp(-sq);
  in[60] = clamp(sq - 1);
  in[61] = clamp(sq + 1);
  in[202] = static_cast<I>(kMin);
  return in;
}

/// One tier's lift entry against Modulus::from_signed (and Modulus::add),
/// with and without the added limb.
template <class I>
void expect_lift_parity(void (*lift)(const rns::Modulus&, u64*, const I*,
                                     const u64*, std::size_t),
                        const rns::Modulus& q, std::mt19937_64& rng) {
  const std::vector<I> in = lift_inputs<I>(q.value(), rng);
  const std::size_t n = in.size();
  const std::vector<u64> add = random_poly(n, q.value(), rng());
  std::vector<u64> want(n), want_add(n), got(n), got_add(n);
  for (std::size_t j = 0; j < n; ++j) {
    want[j] = q.from_signed(in[j]);
    want_add[j] = q.add(want[j], add[j]);
  }
  lift(q, got.data(), in.data(), nullptr, n);
  lift(q, got_add.data(), in.data(), add.data(), n);
  EXPECT_EQ(got, want) << "q " << q.value() << " width " << sizeof(I);
  EXPECT_EQ(got_add, want_add) << "q " << q.value() << " width " << sizeof(I);
}

TEST(SimdSamplerKernels, SignedLiftMatchesFromSignedOnEveryTier) {
  // 97 and 65537 put i8 and i32 words out of range; the widest modulus
  // reaches INT64_MIN / INT64_MAX's fallback from both sides.
  const std::vector<u64> moduli = {97, 65537,
                                   rns::select_prime_chain(36, 16, 1)[0],
                                   rns::select_prime_chain(50, 16, 1)[0],
                                   (u64{1} << 62) - 57};
  std::mt19937_64 rng(42);
  for (const simd::Kernels* k : available_tables()) {
    for (u64 qv : moduli) {
      const rns::Modulus q(qv);
      expect_lift_parity(k->lift_i8, q, rng);
      expect_lift_parity(k->lift_i32, q, rng);
      expect_lift_parity(k->lift_i64, q, rng);
    }
  }
}

// -- dyadic kernels ----------------------------------------------------------

class DyadicKernelTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1000;  // odd tail exercises remainders
};

TEST_F(DyadicKernelTest, AllOpsMatchModulusReferenceOnAllArches) {
  ArchGuard guard;
  for (int bits : {32, 36, 45, 59}) {
    const rns::Modulus q(rns::select_prime_chain(bits, 10, 1)[0]);
    const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
    const std::vector<u64> a = random_poly(kN, q.value(), 1);
    const std::vector<u64> b = random_poly(kN, q.value(), 2);
    const rns::ShoupMul s = rns::ShoupMul::make(q.reduce(987654321), q);

    // Seed-semantics references.
    std::vector<u64> ref_add(kN), ref_sub(kN), ref_mul(kN), ref_fma(kN),
        ref_neg(kN), ref_muls(kN);
    for (std::size_t j = 0; j < kN; ++j) {
      ref_add[j] = q.add(a[j], b[j]);
      ref_sub[j] = q.sub(a[j], b[j]);
      ref_mul[j] = q.mul(a[j], b[j]);
      ref_fma[j] = q.add(a[j], q.mul(a[j], b[j]));
      ref_neg[j] = q.negate(a[j]);
      ref_muls[j] = q.mul(a[j], s.operand);
    }

    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      const char* an = simd::kernel_arch_name(arch);
      std::vector<u64> d = a;
      simd::dyadic_add(dm, d.data(), b.data(), kN);
      EXPECT_EQ(d, ref_add) << "add " << an << " bits=" << bits;
      d = a;
      simd::dyadic_sub(dm, d.data(), b.data(), kN);
      EXPECT_EQ(d, ref_sub) << "sub " << an << " bits=" << bits;
      d = a;
      simd::dyadic_mul(dm, d.data(), b.data(), kN);
      EXPECT_EQ(d, ref_mul) << "mul " << an << " bits=" << bits;
      d = a;
      simd::dyadic_fma_into(dm, d.data(), d.data(), a.data(), b.data(), kN);
      EXPECT_EQ(d, ref_fma) << "fma " << an << " bits=" << bits;
      d = a;
      simd::dyadic_negate(dm, d.data(), kN);
      EXPECT_EQ(d, ref_neg) << "negate " << an << " bits=" << bits;
      d = a;
      simd::dyadic_mul_scalar(dm, d.data(), kN, s.operand, s.quotient);
      EXPECT_EQ(d, ref_muls) << "mul_scalar " << an << " bits=" << bits;
    }
  }
}

TEST_F(DyadicKernelTest, FusedKernelsMatchUnfusedChainsOnAllArches) {
  ArchGuard guard;
  // 51 and 59 bits exceed kIfmaMaxPrimeBits: on the AVX-512 tier the
  // multiplying fused kernels must take the per-call AVX2 fallback and
  // still match bit-exactly.
  for (int bits : {32, 36, 45, 50, 51, 59}) {
    const rns::Modulus q(rns::select_prime_chain(bits, 10, 1)[0]);
    const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
    const std::vector<u64> a = random_poly(kN, q.value(), 11);
    const std::vector<u64> b = random_poly(kN, q.value(), 12);
    const std::vector<u64> digit = random_poly(kN, q.value(), 13);
    const std::vector<u64> base = random_poly(kN, q.value(), 14);
    const rns::ShoupMul s = rns::ShoupMul::make(q.reduce(123456789), q);
    std::vector<u32> perm(kN);
    std::mt19937_64 rng(15);
    for (std::size_t j = 0; j < kN; ++j) perm[j] = static_cast<u32>(j);
    std::shuffle(perm.begin(), perm.end(), rng);

    // Element-wise rns::Modulus references of the unfused chains.
    std::vector<u64> ref_acc0(kN), ref_acc1(kN), rn0(kN), rn1(kN),
        ref_sms(kN), ref_fi(kN), ref_fs(kN);
    for (std::size_t j = 0; j < kN; ++j) {
      const u64 staged = digit[perm[j]];
      ref_acc0[j] = q.add(a[j], q.mul(staged, b[j]));
      ref_acc1[j] = q.add(b[j], q.mul(staged, a[j]));
      rn0[j] = q.add(a[j], q.mul(digit[j], b[j]));
      rn1[j] = q.add(b[j], q.mul(digit[j], a[j]));
      ref_sms[j] = q.mul(q.sub(a[j], b[j]), s.operand);
      ref_fi[j] = q.add(base[j], q.mul(a[j], b[j]));
      ref_fs[j] = q.sub(base[j], q.mul(a[j], b[j]));
    }

    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      const char* an = simd::kernel_arch_name(arch);

      std::vector<u64> acc0 = a, acc1 = b;
      simd::dyadic_fma_accumulate(dm, acc0.data(), acc1.data(), digit.data(),
                                  b.data(), a.data(), perm.data(), kN);
      EXPECT_EQ(acc0, ref_acc0) << "fma_accumulate/perm acc0 " << an
                                << " bits=" << bits;
      EXPECT_EQ(acc1, ref_acc1) << "fma_accumulate/perm acc1 " << an
                                << " bits=" << bits;

      // No-perm variant against a no-perm reference.
      std::vector<u64> acc0n = a, acc1n = b;
      simd::dyadic_fma_accumulate(dm, acc0n.data(), acc1n.data(),
                                  digit.data(), b.data(), a.data(), nullptr,
                                  kN);
      EXPECT_EQ(acc0n, rn0) << "fma_accumulate acc0 " << an
                            << " bits=" << bits;
      EXPECT_EQ(acc1n, rn1) << "fma_accumulate acc1 " << an
                            << " bits=" << bits;

      std::vector<u64> d = a;
      simd::dyadic_sub_mul_scalar(dm, d.data(), b.data(), kN, s.operand,
                                  s.quotient);
      EXPECT_EQ(d, ref_sms) << "sub_mul_scalar " << an << " bits=" << bits;

      std::vector<u64> out(kN, ~u64{0});
      simd::dyadic_fma_into(dm, out.data(), base.data(), a.data(), b.data(),
                            kN);
      EXPECT_EQ(out, ref_fi) << "fma_into " << an << " bits=" << bits;
      out = base;  // out may equal base: the in-place fma
      simd::dyadic_fma_into(dm, out.data(), out.data(), a.data(), b.data(),
                            kN);
      EXPECT_EQ(out, ref_fi) << "fma_into in place " << an << " bits=" << bits;

      std::fill(out.begin(), out.end(), ~u64{0});
      simd::dyadic_fms_into(dm, out.data(), base.data(), a.data(), b.data(),
                            kN);
      EXPECT_EQ(out, ref_fs) << "fms_into " << an << " bits=" << bits;
      out = base;  // out may equal base
      simd::dyadic_fms_into(dm, out.data(), out.data(), a.data(), b.data(),
                            kN);
      EXPECT_EQ(out, ref_fs) << "fms_into in place " << an << " bits=" << bits;
    }
  }
}

TEST_F(DyadicKernelTest, IfmaPrimeConstraintIsComputedOnce) {
  // The 52-bit IFMA datapath accepts primes up to kIfmaMaxPrimeBits, and
  // kernels_for is the one place that rule is applied: on the AVX-512 tier
  // it hands wider primes the AVX2 table, and every other tier ignores q.
  ArchGuard guard;
  for (int bits : {32, 45, 50, 51, 59}) {
    const rns::Modulus q(rns::select_prime_chain(bits, 10, 1)[0]);
    const bool ifma_fits = bits <= simd::kIfmaMaxPrimeBits;
    for (simd::KernelArch arch : available_arches()) {
      simd::set_kernel_arch_for_testing(arch);
      const simd::Kernels* want = &simd::portable_kernels();
      if (arch == simd::KernelArch::kAvx2) want = simd::avx2_kernels();
      if (arch == simd::KernelArch::kAvx512Ifma) {
        want = ifma_fits ? simd::avx512ifma_kernels() : simd::avx2_kernels();
      }
      EXPECT_EQ(&simd::kernels_for(q.value()), want)
          << "bits=" << bits << " arch=" << simd::kernel_arch_name(arch);
    }
    if (!ifma_fits) continue;
    // ratio52 is the exact base-2^52 Barrett constant (floor identity).
    const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
    EXPECT_EQ(dm.ratio52, dm.ratio >> 12);
    EXPECT_EQ(dm.ratio52,
              static_cast<u64>((static_cast<u128>(1) << (52 + dm.shift)) /
                               q.value()));
  }
}

TEST_F(DyadicKernelTest, BarrettMulHandlesExtremes) {
  for (int bits : {32, 36, 59}) {
    const rns::Modulus q(rns::select_prime_chain(bits, 10, 1)[0]);
    const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
    const u64 top = q.value() - 1;
    const u64 cases[][2] = {{0, 0},     {0, top},     {top, 0},
                            {1, top},   {top, top},   {top / 2, top},
                            {top, 2},   {1, 1},       {top / 3, top / 7}};
    for (const auto& c : cases) {
      EXPECT_EQ(dm.mul(c[0], c[1]), q.mul(c[0], c[1]))
          << c[0] << " * " << c[1] << " bits=" << bits;
    }
  }
}

TEST_F(DyadicKernelTest, RejectsPowerOfTwoModulus) {
  EXPECT_THROW(simd::DyadicModulus::make(rns::Modulus(64)), InvalidArgument);
}

// -- bounded primitive-root search -------------------------------------------

TEST(PrimitiveRootSearch, BoundedSearchFailsFastOnNonPrime) {
  // 3 * 11 == 33 == 1 (mod 8): passes the congruence precondition but the
  // unit group has order 20, so no element of order 8 exists. The bounded
  // search must throw instead of scanning toward q.
  EXPECT_THROW(xf::find_primitive_2n_root(rns::Modulus(33), 2), LogicError);
}

TEST(PrimitiveRootSearch, ValidatesExactOrder) {
  for (int log_n : {4, 8, 12}) {
    const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
    const u64 psi = xf::find_primitive_2n_root(q, log_n);
    const u64 two_n = u64{1} << (log_n + 1);
    EXPECT_EQ(q.pow(psi, two_n / 2), q.value() - 1);  // psi^N == -1
    EXPECT_EQ(q.pow(psi, two_n), 1u);                 // psi^{2N} == 1
    // Exact order: no proper power-of-two divisor of 2N reaches 1.
    for (u64 k = 2; k < two_n; k <<= 1) {
      EXPECT_NE(q.pow(psi, k), 1u) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace abc
