#include "poly/rns_poly.hpp"

#include "common/check.hpp"

namespace abc::poly {

RnsPoly::RnsPoly(std::shared_ptr<const PolyContext> ctx, std::size_t limbs,
                 Domain domain)
    : ctx_(std::move(ctx)), limbs_(limbs), domain_(domain) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx_->max_limbs(),
                "limb count out of range");
  data_.assign(limbs_ * ctx_->n(), 0);
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
  ctx_->backend().ntt_forward(*ctx_, data_, limbs_);
  domain_ = Domain::kEval;
}

void RnsPoly::to_coeff() {
  ABC_CHECK_STATE(domain_ == Domain::kEval, "already in coefficient domain");
  ctx_->backend().ntt_inverse(*ctx_, data_, limbs_);
  domain_ = Domain::kCoeff;
}

void RnsPoly::set_zero() { std::fill(data_.begin(), data_.end(), 0); }

void RnsPoly::reset(std::size_t limbs, Domain domain) {
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx_->max_limbs(),
                "limb count out of range");
  limbs_ = limbs;
  domain_ = domain;
  data_.resize(limbs_ * n());  // grows zeroed; reused words left as-is
}

void RnsPoly::set_from_signed(std::span<const i64> coeffs) {
  ctx_->backend().expand_signed(*ctx_, data_, limbs_, coeffs);
}

void RnsPoly::set_from_signed_i32(std::span<const i32> coeffs) {
  ctx_->backend().expand_signed_i32(*ctx_, data_, limbs_, coeffs);
}

void RnsPoly::check_compatible(const RnsPoly& other) const {
  ABC_CHECK_ARG(ctx_.get() == other.ctx_.get(), "context mismatch");
  ABC_CHECK_ARG(limbs_ == other.limbs_, "limb count mismatch");
  ABC_CHECK_ARG(domain_ == other.domain_, "domain mismatch");
}

void RnsPoly::add_inplace(const RnsPoly& other) {
  check_compatible(other);
  ctx_->backend().add(*ctx_, data_, other.data_, limbs_);
}

void RnsPoly::sub_inplace(const RnsPoly& other) {
  check_compatible(other);
  ctx_->backend().sub(*ctx_, data_, other.data_, limbs_);
}

void RnsPoly::negate_inplace() {
  ctx_->backend().negate(*ctx_, data_, limbs_);
}

void RnsPoly::mul_inplace(const RnsPoly& other) {
  check_compatible(other);
  ABC_CHECK_ARG(domain_ == Domain::kEval,
                "dyadic product requires evaluation domain");
  ctx_->backend().mul(*ctx_, data_, other.data_, limbs_);
}

void RnsPoly::fma_inplace(const RnsPoly& a, const RnsPoly& b) {
  check_compatible(a);
  check_compatible(b);
  ABC_CHECK_ARG(domain_ == Domain::kEval,
                "fused multiply-add requires evaluation domain");
  ctx_->backend().fma(*ctx_, data_, a.data_, b.data_, limbs_);
}

void RnsPoly::negate_add_inplace(const RnsPoly& other) {
  check_compatible(other);
  ctx_->backend().negate_add(*ctx_, data_, other.data_, limbs_);
}

void RnsPoly::set_fma(const RnsPoly& base, const RnsPoly& a,
                      const RnsPoly& b) {
  ABC_CHECK_ARG(ctx_.get() == base.ctx_.get(), "context mismatch");
  base.check_compatible(a);
  base.check_compatible(b);
  ABC_CHECK_ARG(base.domain_ == Domain::kEval,
                "fused multiply-add requires evaluation domain");
  reset(base.limbs_, base.domain_);
  ctx_->backend().fma_into(*ctx_, data_, base.data_, a.data_, b.data_,
                           limbs_);
}

void RnsPoly::set_fms(const RnsPoly& base, const RnsPoly& a,
                      const RnsPoly& b) {
  ABC_CHECK_ARG(ctx_.get() == base.ctx_.get(), "context mismatch");
  base.check_compatible(a);
  ABC_CHECK_ARG(ctx_.get() == b.ctx_.get(), "context mismatch");
  ABC_CHECK_ARG(b.limbs_ >= base.limbs_, "limb count mismatch");
  ABC_CHECK_ARG(b.domain_ == base.domain_, "domain mismatch");
  ABC_CHECK_ARG(base.domain_ == Domain::kEval,
                "fused multiply-subtract requires evaluation domain");
  reset(base.limbs_, base.domain_);
  ctx_->backend().fms_into(*ctx_, data_, base.data_, a.data_, b.data_,
                           limbs_);
}

void RnsPoly::mul_scalar_inplace(u64 scalar) {
  ctx_->backend().mul_scalar(*ctx_, data_, limbs_, scalar);
}

void RnsPoly::drop_last_limb() {
  ABC_CHECK_STATE(limbs_ >= 2, "cannot drop the only limb");
  --limbs_;
  data_.resize(limbs_ * n());
}

RnsPoly RnsPoly::automorphism(u32 galois_elt) const {
  ABC_CHECK_ARG(domain_ == Domain::kCoeff,
                "automorphism requires coefficient domain");
  const std::size_t two_n = 2 * n();
  ABC_CHECK_ARG((galois_elt & 1u) != 0 && galois_elt < two_n,
                "galois element must be odd and < 2N");
  RnsPoly out(ctx_, limbs_, domain_);
  ctx_->backend().parallel_for(limbs_, [&](std::size_t l, std::size_t) {
    const rns::Modulus& q = ctx_->modulus(l);
    const std::span<const u64> src = limb(l);
    const std::span<u64> dst = out.limb(l);
    std::size_t idx = 0;  // i * g mod 2N, maintained incrementally
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (idx < n()) {
        dst[idx] = src[i];
      } else {
        dst[idx - n()] = q.negate(src[i]);
      }
      idx = (idx + galois_elt) & (two_n - 1);
    }
  });
  return out;
}

RnsPoly RnsPoly::prefix_copy(std::size_t limbs) const {
  ABC_CHECK_ARG(limbs >= 1 && limbs <= limbs_, "prefix limb count invalid");
  RnsPoly out(ctx_, limbs, domain_);
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
