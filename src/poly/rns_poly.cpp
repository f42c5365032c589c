#include "poly/rns_poly.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "simd/sampler_kernels.hpp"
#include "transform/op_counter.hpp"

namespace abc::poly {
namespace {

/// Runs fn(i) for every limb i through the context's backend. Parallelism
/// only partitions limbs, so results and op counts are the same for any
/// worker count.
template <class Fn>
void for_each_limb(const PolyContext& ctx, std::size_t limbs, Fn&& fn) {
  ctx.backend().parallel_for(limbs,
                             [&](std::size_t i, std::size_t) { fn(i); });
}

}  // namespace

RnsPoly::RnsPoly(std::shared_ptr<const PolyContext> ctx, std::size_t limbs,
                 Domain domain)
    : RnsPoly(std::move(ctx), limbs, domain, kForOverwrite) {
  std::fill(data_.begin(), data_.end(), u64{0});
}

RnsPoly::RnsPoly(std::shared_ptr<const PolyContext> ctx, std::size_t limbs,
                 Domain domain, ForOverwrite)
    : ctx_(std::move(ctx)), limbs_(limbs), domain_(domain) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx_->max_limbs(),
                "limb count out of range");
  data_.resize(limbs_ * ctx_->n());
}

std::span<u64> RnsPoly::limb(std::size_t i) {
  ABC_CHECK_ARG(i < limbs_, "limb index out of range");
  return std::span<u64>(data_).subspan(i * n(), n());
}

std::span<const u64> RnsPoly::limb(std::size_t i) const {
  ABC_CHECK_ARG(i < limbs_, "limb index out of range");
  return std::span<const u64>(data_).subspan(i * n(), n());
}

void RnsPoly::to_eval() {
  ABC_CHECK_STATE(domain_ == Domain::kCoeff, "already in evaluation domain");
  for_each_limb(*ctx_, limbs_,
                [&](std::size_t i) { ctx_->ntt(i).forward(limb(i)); });
  domain_ = Domain::kEval;
}

void RnsPoly::to_coeff() {
  ABC_CHECK_STATE(domain_ == Domain::kEval, "already in coefficient domain");
  for_each_limb(*ctx_, limbs_,
                [&](std::size_t i) { ctx_->ntt(i).inverse(limb(i)); });
  domain_ = Domain::kCoeff;
}

void RnsPoly::reset(std::size_t limbs, Domain domain) {
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx_->max_limbs(),
                "limb count out of range");
  limbs_ = limbs;
  domain_ = domain;
  data_.resize(limbs_ * n(), 0);  // grows zeroed; reused words left as-is
}

template <class I>
void RnsPoly::expand(std::span<const I> coeffs) {
  const std::size_t n = ctx_->n();
  ABC_CHECK_ARG(coeffs.size() == n, "coefficient count mismatch");
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::lift_signed(ctx_->modulus(i), words(i), coeffs.data(), nullptr, n);
    xf::op_counts().other += n;  // RNS expansion work
  });
}

void RnsPoly::set_from_signed(std::span<const i64> coeffs) { expand(coeffs); }

void RnsPoly::set_from_signed_i32(std::span<const i32> coeffs) {
  expand(coeffs);
}

void RnsPoly::check_compatible(const RnsPoly& other) const {
  ABC_CHECK_ARG(ctx_.get() == other.ctx_.get(), "context mismatch");
  ABC_CHECK_ARG(limbs_ == other.limbs_, "limb count mismatch");
  ABC_CHECK_ARG(domain_ == other.domain_, "domain mismatch");
}

void RnsPoly::check_key_operand(const RnsPoly& key) const {
  ABC_CHECK_ARG(ctx_.get() == key.ctx_.get(), "context mismatch");
  ABC_CHECK_ARG(key.limbs_ >= limbs_, "limb count mismatch");
  ABC_CHECK_ARG(domain_ == key.domain_, "domain mismatch");
}

// The element-wise operations below run the simd/ dyadic kernel set
// (runtime-dispatched tier) with the per-limb word constants hoisted into
// PolyContext::dyadic(); fused passes count the ops of the unfused chain.

void RnsPoly::add_inplace(const RnsPoly& other) {
  check_compatible(other);
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_add(ctx_->dyadic(i), words(i), other.words(i), n);
    xf::op_counts().poly_add += n;
  });
}

void RnsPoly::sub_inplace(const RnsPoly& other) {
  check_compatible(other);
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_sub(ctx_->dyadic(i), words(i), other.words(i), n);
    xf::op_counts().poly_add += n;
  });
}

void RnsPoly::negate_inplace() {
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_negate(ctx_->dyadic(i), words(i), n);
    xf::op_counts().poly_add += n;
  });
}

void RnsPoly::mul_inplace(const RnsPoly& key) {
  check_key_operand(key);
  ABC_CHECK_ARG(domain_ == Domain::kEval,
                "dyadic product requires evaluation domain");
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_mul(ctx_->dyadic(i), words(i), key.words(i), n);
    xf::op_counts().poly_mul += n;
  });
}

void RnsPoly::fma_inplace(const RnsPoly& a, const RnsPoly& b) {
  check_compatible(a);
  check_compatible(b);
  ABC_CHECK_ARG(domain_ == Domain::kEval,
                "fused multiply-add requires evaluation domain");
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_fma_into(ctx_->dyadic(i), words(i), words(i), a.words(i),
                          b.words(i), n);
    xf::op_counts().poly_mul += n;
    xf::op_counts().poly_add += n;
  });
}

void RnsPoly::set_fma(const RnsPoly& base, const RnsPoly& a,
                      const RnsPoly& key) {
  ABC_CHECK_ARG(ctx_.get() == base.ctx_.get(), "context mismatch");
  base.check_compatible(a);
  base.check_key_operand(key);
  ABC_CHECK_ARG(base.domain_ == Domain::kEval,
                "fused multiply-add requires evaluation domain");
  reset(base.limbs_, base.domain_);
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_fma_into(ctx_->dyadic(i), words(i), base.words(i),
                          a.words(i), key.words(i), n);
    xf::op_counts().poly_mul += n;  // copy + fma
    xf::op_counts().poly_add += n;
  });
}

void RnsPoly::set_fms(const RnsPoly& base, const RnsPoly& a,
                      const RnsPoly& key) {
  ABC_CHECK_ARG(ctx_.get() == base.ctx_.get(), "context mismatch");
  base.check_compatible(a);
  base.check_key_operand(key);
  ABC_CHECK_ARG(base.domain_ == Domain::kEval,
                "fused multiply-subtract requires evaluation domain");
  reset(base.limbs_, base.domain_);
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    simd::dyadic_fms_into(ctx_->dyadic(i), words(i), base.words(i),
                          a.words(i), key.words(i), n);
    xf::op_counts().poly_mul += n;  // mul + negate + add
    xf::op_counts().poly_add += 2 * n;
  });
}

void RnsPoly::mul_scalar_inplace(u64 scalar) {
  const std::size_t n = ctx_->n();
  for_each_limb(*ctx_, limbs_, [&](std::size_t i) {
    const rns::Modulus& q = ctx_->modulus(i);
    const rns::ShoupMul s = rns::ShoupMul::make(q.reduce(scalar), q);
    simd::dyadic_mul_scalar(ctx_->dyadic(i), words(i), n, s.operand,
                            s.quotient);
    xf::op_counts().poly_mul += n;
  });
}

void RnsPoly::drop_last_limb() {
  ABC_CHECK_STATE(limbs_ >= 2, "cannot drop the only limb");
  --limbs_;
  data_.resize(limbs_ * n());
}

RnsPoly RnsPoly::prefix_copy(std::size_t limbs) const {
  ABC_CHECK_ARG(limbs >= 1 && limbs <= limbs_, "prefix limb count invalid");
  RnsPoly out(ctx_, limbs, domain_, kForOverwrite);
  std::copy(data_.begin(),
            data_.begin() + static_cast<std::ptrdiff_t>(limbs * n()),
            out.data_.begin());
  return out;
}

void RnsPoly::assign_prefix(const RnsPoly& src, std::size_t limbs) {
  ABC_CHECK_ARG(ctx_.get() == src.ctx_.get(), "context mismatch");
  ABC_CHECK_ARG(limbs >= 1 && limbs <= src.limbs_,
                "prefix limb count invalid");
  limbs_ = limbs;
  domain_ = src.domain_;
  data_.assign(src.data_.begin(),
               src.data_.begin() + static_cast<std::ptrdiff_t>(limbs * n()));
}

}  // namespace abc::poly
