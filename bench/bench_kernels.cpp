// Kernel-level microbenchmarks: the primitive throughputs behind the CPU
// baseline of Fig. 5(a) — NTT/INTT (seed eager-reduction kernel vs. the
// Harvey lazy-reduction portable/AVX2/AVX-512-IFMA kernels), the batched
// dyadic ops (seed per-element Barrett vs. the simd/ kernel set), the
// fused-vs-unfused single-pass chains (gadget accumulate, sub_mul_scalar,
// fma_into), ChaCha20 keystream MB/s per tier and the paper-point
// (bootstrappable, 24-limb) sampling kernels per tier (uniform fill,
// Gaussian, RNS lift), the decode path
// (CRT compose BigUint vs u128, DWT forward/inverse scalar vs tier,
// decode at 2 limbs), hardware-model modular multipliers, and end-to-end
// encode/encrypt.
//
// Usage: bench_kernels [--quick] [--reps N]
//                      [--arch portable|avx2|avx512ifma]
//   --quick restricts sizes and reps for CI smoke runs; --arch restricts
//   the kernel sections to one tier (must be selectable on the host).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "common/table.hpp"
#include "poly/crt_block_composer.hpp"
#include "prng/chacha20.hpp"
#include "prng/samplers.hpp"
#include "rns/modmul_algorithms.hpp"
#include "rns/montgomery.hpp"
#include "rns/ntt_prime.hpp"
#include "rns/rns_basis.hpp"
#include "simd/dyadic_kernels.hpp"
#include "simd/sampler_kernels.hpp"
#include "simd/simd_caps.hpp"
#include "transform/dwt.hpp"
#include "transform/ntt.hpp"

namespace {

using namespace abc;

std::vector<u64> random_poly(std::size_t n, u64 q, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<u64> a(n);
  for (u64& v : a) v = rng() % q;
  return a;
}

/// The arch tiers this run benches: every selectable tier, or just the one
/// named by --arch (exits with an error if it is not selectable here).
std::vector<simd::KernelArch> bench_arches(const std::string& requested) {
  std::vector<simd::KernelArch> all = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) all.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable())
    all.push_back(simd::KernelArch::kAvx512Ifma);
  if (requested.empty()) return all;
  for (simd::KernelArch arch : all) {
    if (requested == simd::kernel_arch_name(arch)) return {arch};
  }
  std::fprintf(stderr,
               "bench_kernels: --arch %s is not selectable on this host "
               "(unsupported CPU, non-SIMD build, or an env veto)\n",
               requested.c_str());
  std::exit(1);
}

struct NttVariant {
  std::string name;
  simd::KernelArch arch;  // meaningful for the lazy kernels only
  bool eager;
};

void bench_ntt(TextTable& table, int reps, bool quick,
               const std::vector<simd::KernelArch>& arches) {
  std::vector<NttVariant> variants = {
      {"eager", simd::KernelArch::kPortable, true},
  };
  for (simd::KernelArch arch : arches) {
    variants.push_back(
        {std::string("lazy_") + simd::kernel_arch_name(arch), arch, false});
  }

  const std::vector<int> sizes = quick ? std::vector<int>{13, 16}
                                       : std::vector<int>{13, 14, 15, 16};
  for (int log_n : sizes) {
    const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
    const xf::NttTables tables(q, log_n);
    const std::size_t n = tables.n();

    double eager_fwd = 0;
    double eager_inv = 0;
    for (const NttVariant& v : variants) {
      simd::set_kernel_arch_for_testing(v.arch);
      std::vector<u64> a = random_poly(n, q.value(), 1);
      // forward keeps values canonical, so repeated application is stable.
      const double fwd = bench::time_best_of(reps, [&] {
        v.eager ? tables.forward_eager(a) : tables.forward(a);
      });
      std::vector<u64> b = random_poly(n, q.value(), 2);
      const double inv = bench::time_best_of(reps, [&] {
        v.eager ? tables.inverse_eager(b) : tables.inverse(b);
      });
      if (v.eager) {
        eager_fwd = fwd;
        eager_inv = inv;
      }
      const std::string size = " " + std::to_string(log_n);
      const auto row = [&](const std::string& kernel, double t, double seed) {
        table.add_row({kernel + size, v.name, bench::fmt_time(t),
                       TextTable::fmt(seed / t, 2) + "x"});
      };
      row("ntt fwd", fwd, eager_fwd);
      row("ntt inv", inv, eager_inv);
      row("ntt fwd+inv", fwd + inv, eager_fwd + eager_inv);
    }
  }
  simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
}

void bench_dyadic(TextTable& table, int reps,
                  const std::vector<simd::KernelArch>& arches) {
  const int log_n = 16;
  const std::size_t n = std::size_t{1} << log_n;
  const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
  const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
  const std::vector<u64> src = random_poly(n, q.value(), 3);
  const std::vector<u64> aux = random_poly(n, q.value(), 4);
  const rns::ShoupMul scalar = rns::ShoupMul::make(q.reduce(12345), q);

  struct Op {
    const char* name;
    std::function<void(u64*)> seed;      // seed per-element Modulus loop
    std::function<void(u64*)> kernel;    // simd/ kernel (active arch)
  };
  const std::vector<Op> ops = {
      {"add",
       [&](u64* d) { for (std::size_t j = 0; j < n; ++j) d[j] = q.add(d[j], src[j]); },
       [&](u64* d) { simd::dyadic_add(dm, d, src.data(), n); }},
      {"sub",
       [&](u64* d) { for (std::size_t j = 0; j < n; ++j) d[j] = q.sub(d[j], src[j]); },
       [&](u64* d) { simd::dyadic_sub(dm, d, src.data(), n); }},
      {"mul",
       [&](u64* d) { for (std::size_t j = 0; j < n; ++j) d[j] = q.mul(d[j], src[j]); },
       [&](u64* d) { simd::dyadic_mul(dm, d, src.data(), n); }},
      {"fma",
       [&](u64* d) {
         for (std::size_t j = 0; j < n; ++j)
           d[j] = q.add(d[j], q.mul(src[j], aux[j]));
       },
       [&](u64* d) {
         simd::dyadic_fma_into(dm, d, d, src.data(), aux.data(), n);
       }},
      {"mul_scalar",
       [&](u64* d) {
         for (std::size_t j = 0; j < n; ++j) d[j] = q.mul(d[j], scalar.operand);
       },
       [&](u64* d) {
         simd::dyadic_mul_scalar(dm, d, n, scalar.operand, scalar.quotient);
       }},
      {"negate",
       [&](u64* d) { for (std::size_t j = 0; j < n; ++j) d[j] = q.negate(d[j]); },
       [&](u64* d) { simd::dyadic_negate(dm, d, n); }},
  };

  for (const Op& op : ops) {
    std::vector<u64> d = random_poly(n, q.value(), 5);
    const double seed_t =
        bench::time_best_of(reps, [&] { op.seed(d.data()); });

    double best_t = 1e300;
    const char* best_name = "seed";
    for (simd::KernelArch arch : arches) {
      simd::set_kernel_arch_for_testing(arch);
      d = random_poly(n, q.value(), 5);
      const double t = bench::time_best_of(reps, [&] { op.kernel(d.data()); });
      if (t < best_t) {
        best_t = t;
        best_name = simd::kernel_arch_name(arch);
      }
    }
    table.add_row({std::string("dyadic ") + op.name + " 2^16", best_name,
                   bench::fmt_time(best_t),
                   TextTable::fmt(seed_t / best_t, 2) + "x"});
  }
  simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
}

/// Fused single-pass kernels vs. the unfused multi-pass chains they replace,
/// per arch tier, in the unified {op, arch, fused, ns_per_op} record schema.
/// The shapes mirror the hot paths: gadget_accumulate is the key-switch
/// inner loop (permutation gather + two fma passes), sub_mul_scalar the
/// rescale/mod-down tail, and fma_into the decrypt phase computation.
void bench_fused(TextTable& table, int reps,
                 const std::vector<simd::KernelArch>& arches) {
  // n = 2^18: larger than the single-limb ring so the streams spill L2 the
  // way the real multi-limb/multi-digit key-switch working set does — the
  // saved passes are what fusion is about, so they must actually hit
  // memory here. (The dyadic kernels are plain array ops; n need not be a
  // ring size.)
  const int log_n = 18;
  const std::size_t n = std::size_t{1} << log_n;
  const rns::Modulus q(rns::select_prime_chain(36, 16, 1)[0]);
  const simd::DyadicModulus dm = simd::DyadicModulus::make(q);
  const std::vector<u64> digit = random_poly(n, q.value(), 11);
  const std::vector<u64> kb = random_poly(n, q.value(), 12);
  const std::vector<u64> ka = random_poly(n, q.value(), 13);
  const rns::ShoupMul scalar = rns::ShoupMul::make(q.reduce(98765), q);

  // A Galois-style index permutation (the key-switch gather pattern).
  std::vector<u32> perm(n);
  for (std::size_t j = 0; j < n; ++j) perm[j] = static_cast<u32>(j);
  std::mt19937_64 rng(14);
  std::shuffle(perm.begin(), perm.end(), rng);

  struct FusedOp {
    const char* name;
    std::function<void()> unfused;  // the multi-pass chain it replaces
    std::function<void()> fused;
  };
  std::vector<u64> acc0 = random_poly(n, q.value(), 15);
  std::vector<u64> acc1 = random_poly(n, q.value(), 16);
  std::vector<u64> dst = random_poly(n, q.value(), 17);
  std::vector<u64> src = random_poly(n, q.value(), 18);
  std::vector<u64> out(n);
  std::vector<u64> tmp(n);
  const std::vector<FusedOp> ops = {
      {"gadget_accumulate",
       [&] {
         for (std::size_t j = 0; j < n; ++j) tmp[j] = digit[perm[j]];
         simd::dyadic_fma_into(dm, acc0.data(), acc0.data(), tmp.data(),
                               kb.data(), n);
         simd::dyadic_fma_into(dm, acc1.data(), acc1.data(), tmp.data(),
                               ka.data(), n);
       },
       [&] {
         simd::dyadic_fma_accumulate(dm, acc0.data(), acc1.data(),
                                     digit.data(), kb.data(), ka.data(),
                                     perm.data(), n);
       }},
      {"sub_mul_scalar",
       [&] {
         simd::dyadic_sub(dm, dst.data(), src.data(), n);
         simd::dyadic_mul_scalar(dm, dst.data(), n, scalar.operand,
                                 scalar.quotient);
       },
       [&] {
         simd::dyadic_sub_mul_scalar(dm, dst.data(), src.data(), n,
                                     scalar.operand, scalar.quotient);
       }},
      {"fma_into",
       [&] {
         std::copy(acc0.begin(), acc0.end(), out.begin());
         simd::dyadic_fma_into(dm, out.data(), out.data(), digit.data(),
                               kb.data(), n);
       },
       [&] {
         simd::dyadic_fma_into(dm, out.data(), acc0.data(), digit.data(),
                               kb.data(), n);
       }},
  };

  // Arch outermost: on parts with AVX-512 license-based frequency
  // throttling this keeps the portable/AVX2 measurements from running in
  // the downclocked shadow of a preceding AVX-512 measurement.
  for (simd::KernelArch arch : arches) {
    simd::set_kernel_arch_for_testing(arch);
    for (const FusedOp& op : ops) {
      const char* arch_name = simd::kernel_arch_name(arch);
      const double unfused_t = bench::time_best_of(reps, op.unfused);
      const double fused_t = bench::time_best_of(reps, op.fused);
      table.add_row({std::string("fused ") + op.name + " 2^" +
                         std::to_string(log_n),
                     arch_name, bench::fmt_time(fused_t),
                     TextTable::fmt(unfused_t / fused_t, 2) + "x"});
    }
  }
  simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
}

/// Keystream throughput per kernel tier, and per tier the three sampling
/// kernels at the paper point (bootstrappable, N = 2^16, 24 limbs): the
/// uniform fill (the prng.uniform layer of the client_paper request), one
/// Gaussian error polynomial, and the RNS lift of encoded i64 coefficients
/// into every limb. Two more rows time the bare sampler kernels on 2^16
/// buffered keystream words (the uniform reject against the first prime),
/// so the keystream's share drops out. Each sampling row's ratio is the
/// portable tier's time over the row's (shown when the portable tier is
/// benched); for the bare kernels and the lift that is the portable
/// table entry's time.
void bench_prng(TextTable& table, int reps,
                const std::vector<simd::KernelArch>& arches) {
  std::vector<u8> buf(std::size_t{1} << 20);
  for (simd::KernelArch arch : arches) {
    simd::set_kernel_arch_for_testing(arch);
    const std::string arch_name = simd::kernel_arch_name(arch);
    prng::ChaCha20 rng({1, 2, 3}, 0);
    const double t = bench::time_best_of(reps, [&] { rng.fill_bytes(buf); });
    const double mb_per_s = static_cast<double>(buf.size()) / t / 1e6;
    table.add_row({"chacha20 keystream 1MiB", arch_name, bench::fmt_time(t),
                   TextTable::fmt(mb_per_s, 0) + " MB/s"});
  }

  auto ctx = ckks::CkksContext::create(ckks::CkksParams::bootstrappable());
  const std::size_t limbs = ctx->params().num_limbs;
  const std::size_t n = ctx->n();
  poly::RnsPoly a = ctx->make_poly(limbs, poly::Domain::kEval);
  poly::RnsPoly lifted = ctx->make_poly(limbs, poly::Domain::kCoeff);
  const prng::DiscreteGaussianSampler gaussian(ctx->params().error_sigma);
  std::vector<i32> errors(n);
  std::vector<u64> words(n), residues(n);
  prng::ChaCha20({7, 8, 9}, 0).fill_u64(words);
  const simd::UniformModulus uniform =
      simd::UniformModulus::make(ctx->primes()[0]);
  std::mt19937_64 gen(21);
  std::vector<i64> coeffs(n);
  // Encoded-coefficient magnitudes (below the 36-bit primes).
  for (i64& c : coeffs) c = static_cast<i64>(gen() >> 29) - (i64{1} << 34);
  const std::string log_n = "2^" + std::to_string(ctx->params().log_n);
  const std::string limbs_x = std::to_string(limbs) + "x" + log_n;
  struct Row {
    std::string label;
    std::function<void()> run;
    double portable = 0;
  };
  std::vector<Row> rows = {
      {"uniform fill " + limbs_x,
       [&] {
         ckks::fill_uniform_eval(*ctx, a, ckks::PrngDomain::kSymmetricA,
                                 ctx->reserve_stream_ids(1));
       }},
      {"uniform reject kernel " + log_n,
       [&] {
         simd::uniform_reject(uniform, words.data(), n, residues.data(), n);
       }},
      {"gaussian " + log_n,
       [&] {
         prng::ChaCha20 rng({4, 5, 6}, ctx->reserve_stream_ids(1));
         gaussian.sample_many(rng, errors);
       }},
      {"gaussian cdt kernel " + log_n,
       [&] {
         simd::gaussian_cdt(gaussian.cdf().data(),
                            static_cast<std::size_t>(gaussian.tail()),
                            words.data(), errors.data(), n);
       }},
      {"rns lift " + limbs_x, [&] { lifted.set_from_signed(coeffs); }},
  };
  for (simd::KernelArch arch : arches) {
    simd::set_kernel_arch_for_testing(arch);
    const char* arch_name = simd::kernel_arch_name(arch);
    for (Row& row : rows) {
      const double t = bench::time_best_of(reps, row.run);
      if (arch == simd::KernelArch::kPortable) row.portable = t;
      table.add_row({row.label, arch_name, bench::fmt_time(t),
                     row.portable > 0 ? TextTable::fmt(row.portable / t, 2) + "x"
                                      : "-"});
    }
  }
  simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
}

/// Best of @p reps timed fn() calls, each after an untimed reset().
template <class R, class F>
double time_best_after(int reps, R&& reset, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    reset();
    best = std::min(best, bench::time_median_of(1, fn));
  }
  return best;
}

/// The decode path at the paper point (bootstrappable, N=2^16), per kernel
/// tier: the CRT compose of a decrypted message's coefficients at 2 and 24
/// limbs (per-coefficient BigUint vs the whole-polynomial u128 compose),
/// the canonical-embedding DWT forward/inverse (scalar template vs the
/// tier's kernels) and CkksEncoder::decode at the 2 returned limbs.
void bench_decode(TextTable& table, int reps, bool quick,
                  const std::vector<simd::KernelArch>& arches) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::bootstrappable());
  const std::size_t n = ctx->n();
  std::mt19937_64 rng(9);
  std::vector<i64> coeffs(n);
  for (i64& c : coeffs) c = static_cast<i64>(rng() >> 23) - (i64{1} << 40);
  std::vector<double> out(n);

  for (std::size_t limbs : {std::size_t{2}, std::size_t{24}}) {
    poly::RnsPoly p = ctx->make_poly(limbs, poly::Domain::kCoeff);
    p.set_from_signed(coeffs);
    std::vector<const u64*> rows;
    for (std::size_t i = 0; i < limbs; ++i) rows.push_back(p.limb(i).data());
    rns::CrtComposer reference(ctx->poly_context()->basis(), limbs);
    poly::CrtBlockComposer composer(*ctx->poly_context(), limbs);
    const std::string label = "crt compose " + std::to_string(limbs) + " limbs";
    std::vector<u64> residues(limbs);
    const double t_big = bench::time_best_of(quick ? 1 : reps, [&] {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < limbs; ++i) residues[i] = rows[i][j];
        out[j] = reference.compose_centered(residues);
      }
    });
    table.add_row({label, "biguint", bench::fmt_time(t_big), "-"});
    for (simd::KernelArch arch : arches) {
      simd::set_kernel_arch_for_testing(arch);
      const char* arch_name = simd::kernel_arch_name(arch);
      const double t =
          bench::time_best_of(reps, [&] { composer.compose(rows, 0, out); });
      table.add_row({label, arch_name, bench::fmt_time(t),
                     TextTable::fmt(t_big / t, 1) + "x"});
    }
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }

  const xf::CkksDwtPlan& plan = ctx->dwt();
  std::vector<xf::Cx<double>> input(n);
  for (std::size_t j = 0; j < n; ++j) {
    input[j] = {static_cast<double>(coeffs[j]) * 0x1p-35, 0.0};
  }
  std::vector<xf::Cx<double>> a(n);
  auto reset = [&] { a = input; };
  const std::span<xf::Cx<double>> span(a);
  const double fwd_scalar =
      time_best_after(reps, reset, [&] { plan.forward<double>(span); });
  const double inv_scalar =
      time_best_after(reps, reset, [&] { plan.inverse<double>(span); });
  table.add_row({"dwt fwd 2^16", "scalar", bench::fmt_time(fwd_scalar), "-"});
  table.add_row({"dwt inv 2^16", "scalar", bench::fmt_time(inv_scalar), "-"});
  for (simd::KernelArch arch : arches) {
    simd::set_kernel_arch_for_testing(arch);
    const char* arch_name = simd::kernel_arch_name(arch);
    const double fwd =
        time_best_after(reps, reset, [&] { plan.forward(span); });
    const double inv =
        time_best_after(reps, reset, [&] { plan.inverse(span); });
    table.add_row({"dwt fwd 2^16", arch_name, bench::fmt_time(fwd),
                   TextTable::fmt(fwd_scalar / fwd, 1) + "x"});
    table.add_row({"dwt inv 2^16", arch_name, bench::fmt_time(inv),
                   TextTable::fmt(inv_scalar / inv, 1) + "x"});
  }

  ckks::CkksEncoder encoder(ctx);
  ckks::Plaintext pt{ctx->make_poly(2, poly::Domain::kCoeff),
                     ctx->params().scale()};
  pt.poly.set_from_signed(coeffs);
  for (simd::KernelArch arch : arches) {
    simd::set_kernel_arch_for_testing(arch);
    const char* arch_name = simd::kernel_arch_name(arch);
    const double t = bench::time_best_of(reps, [&] {
      if (encoder.decode(pt).empty()) std::abort();
    });
    table.add_row({"decode 2^16 x 2 limbs", arch_name, bench::fmt_time(t),
                   "-"});
  }
  simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
}

void bench_misc(TextTable& table, int reps, bool quick) {
  // Hardware-model modular multipliers (dependent-chain latency).
  const u64 qv = (u64{1} << 36) - (u64{1} << 18) + 1;
  constexpr int kChain = 1 << 18;
  auto chain = [&](auto& mm, const char* name) {
    std::mt19937_64 rng(3);
    u64 a = rng() % qv;
    const u64 b = rng() % qv;
    const double t = bench::time_best_of(reps, [&] {
      for (int i = 0; i < kChain; ++i) a = mm.mul(a, b) | 1;
    });
    table.add_row({std::string("hw modmul ") + name, "-",
                   bench::fmt_time(t / kChain), "-"});
  };
  rns::BarrettHwModMul barrett(qv);
  rns::MontgomeryHwModMul mont(qv, 44);
  rns::NttFriendlyMontgomeryHwModMul ntt_mont(qv, 44);
  chain(barrett, "barrett");
  chain(mont, "montgomery");
  chain(ntt_mont, "ntt_montgomery");

  // End-to-end encode+encrypt (reduced-depth; full numbers come from
  // bench_fig5a_latency).
  if (!quick) {
    auto ctx =
        ckks::CkksContext::create(ckks::CkksParams::sweep_point(14, 8));
    ckks::CkksEncoder encoder(ctx);
    ckks::KeyGenerator keygen(ctx);
    const ckks::SecretKey sk = keygen.secret_key();
    ckks::Encryptor enc(ctx, sk);
    std::vector<std::complex<double>> msg(encoder.slots(), {0.5, -0.25});
    const double t = bench::time_best_of(reps, [&] {
      ckks::Ciphertext ct = enc.encrypt(encoder.encode(msg, 8));
      if (ct.components.empty()) std::abort();
    });
    table.add_row({"encode+encrypt 2^14x8", "-", bench::fmt_time(t), "-"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.quick ? 2 : 5);

  const std::vector<simd::KernelArch> arches = bench_arches(args.arch);

  std::printf("ABC-FHE reproduction :: kernel microbenchmarks\n");
  std::printf("Kernel arch: %s (AVX2 %s, AVX-512/IFMA %s; "
              "ABC_FORCE_PORTABLE_KERNELS=1 forces portable, "
              "ABC_DISABLE_AVX512_KERNELS=1 caps at AVX2)\n",
              simd::kernel_arch_name(simd::active_kernel_arch()),
              simd::avx2_supported() ? "available" : "unavailable",
              simd::avx512ifma_supported() ? "available" : "unavailable");
  if (!args.arch.empty()) {
    std::printf("Benching arch tier: %s (--arch)\n", args.arch.c_str());
  }
  std::printf("\n");

  TextTable table("Kernel timings (best of " + std::to_string(reps) +
                  " reps; speed-up vs seed/unfused where applicable)");
  table.set_header({"Kernel", "Variant", "Time", "Speed-up"});

  bench_ntt(table, reps, args.quick, arches);
  bench_dyadic(table, reps, arches);
  bench_fused(table, reps, arches);
  bench_prng(table, reps, arches);
  bench_decode(table, reps, args.quick, arches);
  bench_misc(table, reps, args.quick);

  table.print();
  return 0;
}
