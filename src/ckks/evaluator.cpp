#include "ckks/evaluator.hpp"

#include <cmath>

#include "backend/poly_backend.hpp"
#include "simd/dyadic_kernels.hpp"

namespace abc::ckks {
namespace {

void check_binop(const Ciphertext& a, const Ciphertext& b) {
  ABC_CHECK_ARG(a.limbs() == b.limbs(), "level mismatch");
  ABC_CHECK_ARG(std::abs(a.scale - b.scale) <=
                    1e-9 * std::max(a.scale, b.scale),
                "scale mismatch");
}

}  // namespace

Evaluator::Evaluator(std::shared_ptr<const CkksContext> ctx)
    : ctx_(ctx), switcher_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  const poly::PolyContext& pctx = *ctx_->poly_context();
  rescale_consts_.resize(ctx_->max_limbs());
  for (std::size_t last = 1; last < ctx_->max_limbs(); ++last) {
    const rns::Modulus& q_last = pctx.modulus(last);
    const u64 half = q_last.value() >> 1;
    std::vector<RescaleConst>& row = rescale_consts_[last];
    row.reserve(last);
    for (std::size_t i = 0; i < last; ++i) {
      const rns::Modulus& qi = pctx.modulus(i);
      row.push_back(RescaleConst{
          rns::ShoupMul::make(qi.inv(qi.reduce(q_last.value())), qi),
          qi.reduce(half)});
    }
  }
}

void Evaluator::relinearize_inplace(Ciphertext& ct, const RelinKey& rlk,
                                    KeySwitchScratch* scratch) const {
  relinearize_inplace(ct, rlk.key, scratch);
}

void Evaluator::relinearize_inplace(Ciphertext& ct, const KeySwitchKey& rlk,
                                    KeySwitchScratch* scratch) const {
  ABC_CHECK_ARG(ct.size() == 3,
                "relinearization expects an unreduced 3-component product");
  ABC_CHECK_ARG(rlk.kind == KeySwitchKey::Kind::kRelin,
                "not a relinearization key");
  const std::size_t limbs = ct.limbs();
  // Every check switch_key() would make, up front: nothing below may throw
  // after ct starts changing (a caller catching mid-way would otherwise
  // hold a ciphertext that decrypts to garbage).
  ABC_CHECK_ARG(rlk.digits() >= limbs && !rlk.b.empty() &&
                    rlk.b[0].limbs() == ctx_->max_limbs(),
                "relin key does not cover this ciphertext");
  ABC_CHECK_ARG(limbs <= switcher_.max_switchable_limbs(),
                "the last RNS prime is reserved as the key-switch special "
                "modulus; rescale or mod-switch the ciphertext first");
  KeySwitchScratch local;
  KeySwitchScratch& s = scratch ? *scratch : local;
  if (!s.work) {
    s.work.emplace(ctx_->make_poly_for_overwrite(limbs, poly::Domain::kEval));
  }
  poly::RnsPoly& c2 = *s.work;
  c2.assign_prefix(ct.c(2), limbs);
  c2.to_coeff();
  // The key-switch outputs land in the retiring third component and in the
  // staging polynomial (consumed before the outputs are written): with
  // external scratch the whole relinearization is allocation-free.
  switcher_.switch_key(c2, rlk, {}, s, ct.c(2), c2);
  ct.c(0).add_inplace(ct.c(2));
  ct.c(1).add_inplace(c2);
  ct.components.pop_back();
  ct.compressed_c1.reset();
}

Ciphertext Evaluator::rotate(const Ciphertext& ct, int step,
                             const GaloisKeys& gks,
                             KeySwitchScratch* scratch) const {
  // Resolved before the expensive decomposition: a missing key fails fast.
  return rotate(ct, gks.key_for(step), scratch);
}

/// Key-switches the *unrotated* c1 and applies the step's automorphism to
/// the digits inside the accumulation (an evaluation-domain permutation)
/// and to c0 directly. Decomposing sigma(c1) instead would pick the other
/// (equally valid) integer lift of the digits and produce a different but
/// equivalent ciphertext, so this order fixes the output bytes.
Ciphertext Evaluator::rotate(const Ciphertext& ct, const KeySwitchKey& key,
                             KeySwitchScratch* scratch) const {
  ABC_CHECK_ARG(ct.size() == 2, "rotation expects 2 components "
                                "(relinearize products first)");
  ABC_CHECK_ARG(key.kind == KeySwitchKey::Kind::kGalois, "not a Galois key");
  KeySwitchScratch local;
  KeySwitchScratch& s = scratch ? *scratch : local;
  const std::size_t limbs = ct.limbs();
  if (!s.work) {
    s.work.emplace(ctx_->make_poly_for_overwrite(limbs, poly::Domain::kEval));
  }
  s.work->assign_prefix(ct.c(1), limbs);
  s.work->to_coeff();
  build_galois_eval_table(ctx_->params().log_n, key.galois_elt, s.perm);
  Ciphertext out;
  out.scale = ct.scale;
  out.components.reserve(2);
  for (int i = 0; i < 2; ++i) {
    out.components.push_back(
        ctx_->make_poly_for_overwrite(limbs, poly::Domain::kEval));
  }
  switcher_.switch_key(*s.work, key, s.perm, s, out.c(0), out.c(1));
  // out c0 = sigma(c0) + ks0, applied in the evaluation domain.
  apply_galois_eval(ct.c(0), s.perm, *s.work);
  out.c(0).add_inplace(*s.work);
  return out;
}

Ciphertext Evaluator::add(const Ciphertext& a, const Ciphertext& b) const {
  check_binop(a, b);
  ABC_CHECK_ARG(a.size() == b.size(), "component count mismatch");
  Ciphertext out = a;
  out.compressed_c1.reset();  // result c1 is an explicit polynomial now
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.c(i).add_inplace(b.c(i));
  }
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const {
  check_binop(a, b);
  ABC_CHECK_ARG(a.size() == b.size(), "component count mismatch");
  Ciphertext out = a;
  out.compressed_c1.reset();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.c(i).sub_inplace(b.c(i));
  }
  return out;
}

Ciphertext Evaluator::add_plain(const Ciphertext& ct,
                                const Plaintext& pt) const {
  ABC_CHECK_ARG(ct.limbs() == pt.limbs(), "level mismatch");
  ABC_CHECK_ARG(std::abs(ct.scale - pt.scale) <=
                    1e-9 * std::max(ct.scale, pt.scale),
                "scale mismatch");
  poly::RnsPoly m = pt.poly;
  m.to_eval();
  Ciphertext out = ct;
  out.c(0).add_inplace(m);
  return out;
}

Ciphertext Evaluator::mul_plain(const Ciphertext& ct,
                                const Plaintext& pt) const {
  ABC_CHECK_ARG(ct.limbs() == pt.limbs(), "level mismatch");
  poly::RnsPoly m = pt.poly;
  m.to_eval();
  Ciphertext out = ct;
  out.compressed_c1.reset();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.c(i).mul_inplace(m);
  }
  out.scale = ct.scale * pt.scale;
  return out;
}

Ciphertext Evaluator::mul(const Ciphertext& a, const Ciphertext& b) const {
  ABC_CHECK_ARG(a.size() == 2 && b.size() == 2,
                "only 2-component inputs supported (relinearize first)");
  ABC_CHECK_ARG(a.limbs() == b.limbs(), "level mismatch");
  // Components are built in place: a braced component list would
  // deep-copy all three products out of its const initializer_list.
  Ciphertext out;
  out.scale = a.scale * b.scale;
  out.components.reserve(3);
  out.components.push_back(a.c(0));
  out.c(0).mul_inplace(b.c(0));
  out.components.push_back(a.c(0));
  out.c(1).mul_inplace(b.c(1));
  out.c(1).fma_inplace(a.c(1), b.c(0));
  out.components.push_back(a.c(1));
  out.c(2).mul_inplace(b.c(1));
  return out;
}

void Evaluator::rescale_poly(poly::RnsPoly& p) const {
  const std::size_t last = p.limbs() - 1;
  const poly::PolyContext& pctx = *ctx_->poly_context();
  const rns::Modulus& q_last = pctx.modulus(last);

  // Bring the last limb back to coefficients.
  std::vector<u64> c_last(p.limb(last).begin(), p.limb(last).end());
  pctx.ntt(last).inverse(c_last);

  // Shift into [0, q_last) "rounded" position: add floor(q_last / 2) so the
  // later floor-division by q_last becomes round-to-nearest.
  const u64 half = q_last.value() >> 1;
  for (u64& v : c_last) v = q_last.add(v, half);

  // Per-limb correction, fanned out across the backend (each limb owns its
  // output and a per-worker staging buffer, so the result is bit-identical
  // at any worker count). Constants come from the constructor cache.
  backend::PolyBackend& be = pctx.backend();
  const std::size_t n = p.n();
  std::vector<u64> tmp(be.workers() * n);
  const std::vector<RescaleConst>& consts = rescale_consts_[last];
  be.parallel_for(last, [&](std::size_t i, std::size_t worker) {
    const rns::Modulus& qi = pctx.modulus(i);
    const RescaleConst& rc = consts[i];
    const std::span<u64> t(tmp.data() + worker * n, n);
    // t = NTT_i( (c_last + half) mod q_i - half )
    for (std::size_t j = 0; j < n; ++j) {
      t[j] = qi.sub(qi.reduce(c_last[j]), rc.half_mod_qi);
    }
    pctx.ntt(i).forward(t);
    // c_i = (c_i - t) * q_last^{-1} mod q_i, one fused pass.
    simd::dyadic_sub_mul_scalar(pctx.dyadic(i), p.limb(i).data(), t.data(),
                                n, rc.inv_q_last.operand,
                                rc.inv_q_last.quotient);
  });
  p.drop_last_limb();
}

void Evaluator::rescale_inplace(Ciphertext& ct) const {
  ABC_CHECK_ARG(ct.limbs() >= 2, "cannot rescale a level-1 ciphertext");
  ABC_CHECK_ARG(!ct.compressed_c1.has_value(),
                "decompress c1 before rescaling");
  const std::size_t last = ct.limbs() - 1;
  const double q_last = static_cast<double>(
      ctx_->poly_context()->modulus(last).value());
  for (std::size_t i = 0; i < ct.size(); ++i) rescale_poly(ct.c(i));
  ct.scale /= q_last;
}

void Evaluator::mod_switch_to_inplace(Ciphertext& ct,
                                      std::size_t target_limbs) const {
  ABC_CHECK_ARG(target_limbs >= 1 && target_limbs <= ct.limbs(),
                "invalid target level");
  for (std::size_t i = 0; i < ct.size(); ++i) {
    ct.c(i) = ct.c(i).prefix_copy(target_limbs);
  }
}

}  // namespace abc::ckks
