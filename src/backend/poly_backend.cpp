#include "backend/poly_backend.hpp"

#include "backend/scalar_backend.hpp"
#include "common/check.hpp"
#include "poly/poly_context.hpp"
#include "simd/dyadic_kernels.hpp"
#include "transform/op_counter.hpp"

namespace abc::backend {

namespace {

/// One limb of an RnsPoly as a span, limb-major storage.
std::span<u64> limb_of(std::span<u64> data, std::size_t i, std::size_t n) {
  return data.subspan(i * n, n);
}
std::span<const u64> limb_of(std::span<const u64> data, std::size_t i,
                             std::size_t n) {
  return data.subspan(i * n, n);
}

}  // namespace

void PolyBackend::ntt_forward(const poly::PolyContext& ctx,
                              std::span<u64> data, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    ctx.ntt(i).forward(limb_of(data, i, n));
  });
}

void PolyBackend::ntt_inverse(const poly::PolyContext& ctx,
                              std::span<u64> data, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    ctx.ntt(i).inverse(limb_of(data, i, n));
  });
}

// The element-wise kernels below route through the simd/ dyadic kernel set
// (AVX2 or portable, runtime-dispatched) with the per-limb word constants
// hoisted out of the loops; results are bit-identical to the seed's
// Modulus::add/sub/mul element loops.

void PolyBackend::add(const poly::PolyContext& ctx, std::span<u64> dst,
                      std::span<const u64> src, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_add(m, limb_of(dst, i, n).data(),
                     limb_of(src, i, n).data(), n);
    xf::op_counts().poly_add += n;
  });
}

void PolyBackend::sub(const poly::PolyContext& ctx, std::span<u64> dst,
                      std::span<const u64> src, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_sub(m, limb_of(dst, i, n).data(),
                     limb_of(src, i, n).data(), n);
    xf::op_counts().poly_add += n;
  });
}

void PolyBackend::mul(const poly::PolyContext& ctx, std::span<u64> dst,
                      std::span<const u64> src, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_mul(m, limb_of(dst, i, n).data(),
                     limb_of(src, i, n).data(), n);
    xf::op_counts().poly_mul += n;
  });
}

void PolyBackend::fma(const poly::PolyContext& ctx, std::span<u64> dst,
                      std::span<const u64> a, std::span<const u64> b,
                      std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_fma(m, limb_of(dst, i, n).data(), limb_of(a, i, n).data(),
                     limb_of(b, i, n).data(), n);
    xf::op_counts().poly_mul += n;
    xf::op_counts().poly_add += n;
  });
}

void PolyBackend::negate(const poly::PolyContext& ctx, std::span<u64> dst,
                         std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_negate(m, limb_of(dst, i, n).data(), n);
    xf::op_counts().poly_add += n;
  });
}

void PolyBackend::negate_add(const poly::PolyContext& ctx, std::span<u64> dst,
                             std::span<const u64> src, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_negate_add(m, limb_of(dst, i, n).data(),
                            limb_of(src, i, n).data(), n);
    // Same accounting as the unfused negate + add chain.
    xf::op_counts().poly_add += 2 * n;
  });
}

void PolyBackend::fma_into(const poly::PolyContext& ctx, std::span<u64> out,
                           std::span<const u64> base, std::span<const u64> a,
                           std::span<const u64> b, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_fma_into(m, limb_of(out, i, n).data(),
                          limb_of(base, i, n).data(), limb_of(a, i, n).data(),
                          limb_of(b, i, n).data(), n);
    // Same accounting as the unfused copy + fma chain.
    xf::op_counts().poly_mul += n;
    xf::op_counts().poly_add += n;
  });
}

void PolyBackend::fms_into(const poly::PolyContext& ctx, std::span<u64> out,
                           std::span<const u64> base, std::span<const u64> a,
                           std::span<const u64> b, std::size_t limbs) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const simd::DyadicModulus& m = ctx.dyadic(i);
    simd::dyadic_fms_into(m, limb_of(out, i, n).data(),
                          limb_of(base, i, n).data(), limb_of(a, i, n).data(),
                          limb_of(b, i, n).data(), n);
    // Same accounting as the unfused mul + negate_add chain.
    xf::op_counts().poly_mul += n;
    xf::op_counts().poly_add += 2 * n;
  });
}

void PolyBackend::mul_scalar(const poly::PolyContext& ctx, std::span<u64> dst,
                             std::size_t limbs, u64 scalar) {
  const std::size_t n = ctx.n();
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const rns::Modulus& q = ctx.modulus(i);
    const rns::ShoupMul s = rns::ShoupMul::make(q.reduce(scalar), q);
    simd::dyadic_mul_scalar(ctx.dyadic(i), limb_of(dst, i, n).data(), n,
                            s.operand, s.quotient);
    xf::op_counts().poly_mul += n;
  });
}

void PolyBackend::expand_signed(const poly::PolyContext& ctx,
                                std::span<u64> dst, std::size_t limbs,
                                std::span<const i64> coeffs) {
  const std::size_t n = ctx.n();
  ABC_CHECK_ARG(coeffs.size() == n, "coefficient count mismatch");
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const rns::Modulus& q = ctx.modulus(i);
    std::span<u64> d = limb_of(dst, i, n);
    for (std::size_t j = 0; j < n; ++j) d[j] = q.from_signed(coeffs[j]);
    xf::op_counts().other += n;  // RNS expansion work
  });
}

void PolyBackend::expand_signed_i32(const poly::PolyContext& ctx,
                                    std::span<u64> dst, std::size_t limbs,
                                    std::span<const i32> coeffs) {
  const std::size_t n = ctx.n();
  ABC_CHECK_ARG(coeffs.size() == n, "coefficient count mismatch");
  parallel_for(limbs, [&](std::size_t i, std::size_t) {
    const rns::Modulus& q = ctx.modulus(i);
    std::span<u64> d = limb_of(dst, i, n);
    for (std::size_t j = 0; j < n; ++j) d[j] = q.from_signed(coeffs[j]);
    xf::op_counts().other += n;
  });
}

std::shared_ptr<PolyBackend> default_backend() {
  static std::shared_ptr<PolyBackend> instance =
      std::make_shared<ScalarBackend>();
  return instance;
}

}  // namespace abc::backend
