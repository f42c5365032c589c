#include "ckks/keyswitch.hpp"

#include <algorithm>

#include "backend/poly_backend.hpp"
#include "common/bitops.hpp"
#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dyadic_kernels.hpp"
#include "transform/op_counter.hpp"

namespace abc::ckks {

namespace {

std::span<u64> slice(std::vector<u64>& buf, std::size_t index, std::size_t n) {
  return std::span<u64>(buf).subspan(index * n, n);
}

// Leaked (like the global registry) so a key switch during static
// teardown still has live handles.
struct KsMetrics {
  obs::Counter decompositions =
      obs::registry().counter(obs::catalog::kKeySwitchDecompositions);
  obs::Counter accumulations =
      obs::registry().counter(obs::catalog::kKeySwitchAccumulations);
};

KsMetrics& ks_metrics() {
  static KsMetrics* m = new KsMetrics;
  return *m;
}

}  // namespace

void build_galois_eval_table(int log_n, u32 galois_elt,
                             std::vector<u32>& table) {
  const std::size_t n = std::size_t{1} << log_n;
  const u64 mask = 2 * n - 1;  // indices mod 2N
  ABC_CHECK_ARG((galois_elt & 1u) != 0 && galois_elt < 2 * n,
                "galois element must be odd and < 2N");
  table.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    // Position p evaluates at psi^{2*bitrev(p)+1}; sigma_g sends that
    // point to psi^{g*(2*bitrev(p)+1)}, whose position is recovered by
    // inverting the same indexing.
    const u64 point = (2 * bit_reverse(p, log_n) + 1) * galois_elt & mask;
    table[p] = static_cast<u32>(bit_reverse((point - 1) >> 1, log_n));
  }
}

void apply_galois_eval(const poly::RnsPoly& src, std::span<const u32> table,
                       poly::RnsPoly& dst) {
  ABC_CHECK_ARG(src.domain() == poly::Domain::kEval,
                "eval-domain automorphism requires evaluation form");
  ABC_CHECK_ARG(table.size() == src.n(), "galois table size mismatch");
  ABC_CHECK_STATE(&src != &dst, "eval automorphism cannot run in place");
  const poly::PolyContext& pctx = src.context();
  dst.reset(src.limbs(), poly::Domain::kEval);
  pctx.backend().parallel_for(src.limbs(), [&](std::size_t l, std::size_t) {
    const std::span<const u64> s = src.limb(l);
    const std::span<u64> d = dst.limb(l);
    for (std::size_t i = 0; i < d.size(); ++i) d[i] = s[table[i]];
    xf::op_counts().other += d.size();
  });
}

KeySwitcher::KeySwitcher(std::shared_ptr<const CkksContext> ctx)
    : ctx_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  // A 1-limb chain has no spare prime: the switcher constructs (so an
  // Evaluator still works for add/mul) but every switch_key() call throws.
  const poly::PolyContext& pctx = *ctx_->poly_context();
  special_ = ctx_->max_limbs() - 1;
  const rns::Modulus& p = pctx.modulus(special_);
  const u64 half = p.value() >> 1;
  p_mod_.reserve(special_);
  p_inv_.reserve(special_);
  half_mod_.reserve(special_);
  for (std::size_t j = 0; j < special_; ++j) {
    const rns::Modulus& q = pctx.modulus(j);
    const u64 p_mod_q = q.reduce(p.value());
    p_mod_.push_back(rns::ShoupMul::make(p_mod_q, q));
    p_inv_.push_back(rns::ShoupMul::make(q.inv(p_mod_q), q));
    half_mod_.push_back(q.reduce(half));
  }
}

void KeySwitcher::switch_key(const poly::RnsPoly& c_coeff,
                             const KeySwitchKey& key,
                             std::span<const u32> eval_perm,
                             KeySwitchScratch& scratch, poly::RnsPoly& out0,
                             poly::RnsPoly& out1) const {
  ABC_CHECK_ARG(c_coeff.domain() == poly::Domain::kCoeff,
                "key switching expects a coefficient-domain polynomial");
  const std::size_t level = c_coeff.limbs();
  ABC_CHECK_ARG(level <= max_switchable_limbs(),
                "the last RNS prime is reserved as the key-switch special "
                "modulus; rescale or mod-switch the ciphertext first");
  ABC_CHECK_ARG(key.digits() >= level, "key has too few gadget digits");
  ABC_CHECK_ARG(key.b[0].limbs() == ctx_->max_limbs(),
                "key digits must span the full prime chain");
  ABC_CHECK_ARG(eval_perm.empty() || eval_perm.size() == ctx_->n(),
                "galois table size mismatch");
  decompose(c_coeff, scratch);
  accumulate(level, key, eval_perm, scratch, out0, out1);
}

void KeySwitcher::decompose(const poly::RnsPoly& c_coeff,
                            KeySwitchScratch& scratch) const {
  const std::size_t level = c_coeff.limbs();
  const poly::PolyContext& pctx = *ctx_->poly_context();
  const std::size_t n = ctx_->n();
  const std::size_t ext = level + 1;  // target limbs: {0..level-1, P}

  // Scratch acquisition is the allocation point of the whole switch; a
  // fault here models memory pressure before any digit is written.
  ABC_FAILPOINT(fail::points::kKeySwitchScratch);
  scratch.w.resize(level * n);
  scratch.digits.resize(level * ext * n);

  // Scaled digits w_d = (P * c) mod q_d, one limb each.
  backend::PolyBackend& be = pctx.backend();
  be.parallel_for(level, [&](std::size_t d, std::size_t) {
    const rns::Modulus& q = pctx.modulus(d);
    const rns::ShoupMul& pm = p_mod_[d];
    const std::span<const u64> src = c_coeff.limb(d);
    const std::span<u64> w = slice(scratch.w, d, n);
    for (std::size_t i = 0; i < n; ++i) w[i] = pm.mul(src[i], q.value());
    xf::op_counts().poly_mul += n;
  });

  // RNS expansion + forward NTT of every (digit, target-limb) pair — the
  // flat work list that dominates key switching. Each pair owns its output
  // slot, so any partitioning is race-free and bit-deterministic.
  be.parallel_for(level * ext, [&](std::size_t item, std::size_t) {
    const std::size_t d = item / ext;
    const std::size_t j = item % ext;
    const std::size_t jidx = j < level ? j : special_;
    const rns::Modulus& q = pctx.modulus(jidx);
    const std::span<const u64> w = slice(scratch.w, d, n);
    const std::span<u64> out = slice(scratch.digits, item, n);
    if (jidx == d) {
      std::copy(w.begin(), w.end(), out.begin());
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = q.reduce(w[i]);
    }
    xf::op_counts().other += n;
    pctx.ntt(jidx).forward(out);
  });

  ks_metrics().decompositions.inc();
  if (obs::Trace* t = obs::active_trace()) t->ks_decompositions += 1;
}

void KeySwitcher::accumulate(std::size_t level, const KeySwitchKey& key,
                             std::span<const u32> eval_perm,
                             KeySwitchScratch& scratch, poly::RnsPoly& out0,
                             poly::RnsPoly& out1) const {
  const std::size_t n = ctx_->n();
  const std::size_t ext = level + 1;
  const poly::PolyContext& pctx = *ctx_->poly_context();
  backend::PolyBackend& be = pctx.backend();
  scratch.acc_p0.resize(n);
  scratch.acc_p1.resize(n);
  scratch.tmp.resize(be.workers() * n);
  out0.reset(level, poly::Domain::kEval);
  out1.reset(level, poly::Domain::kEval);

  // Inner-product accumulation, partitioned per target limb: limb j of
  // both outputs sums digit * key over all digits, so no two workers ever
  // touch one accumulator and digit order is fixed (bit-determinism). The
  // fused kernel folds the eval-domain permutation gather and both
  // accumulations into one pass over the digit — no scratch staging.
  const u32* perm = eval_perm.empty() ? nullptr : eval_perm.data();
  be.parallel_for(ext, [&](std::size_t j, std::size_t) {
    const std::size_t jidx = j < level ? j : special_;
    const simd::DyadicModulus& dm = pctx.dyadic(jidx);
    u64* acc0 = j < level ? out0.limb(j).data() : scratch.acc_p0.data();
    u64* acc1 = j < level ? out1.limb(j).data() : scratch.acc_p1.data();
    std::fill(acc0, acc0 + n, 0);
    std::fill(acc1, acc1 + n, 0);
    for (std::size_t d = 0; d < level; ++d) {
      const u64* digit = slice(scratch.digits, d * ext + j, n).data();
      simd::dyadic_fma_accumulate(dm, acc0, acc1, digit,
                                  key.b[d].limb(jidx).data(),
                                  key.a[d].limb(jidx).data(), perm, n);
      xf::op_counts().poly_mul += 2 * n;
      xf::op_counts().poly_add += 2 * n;
    }
  });

  // Mod-down: divide by P with round-to-nearest (the rescale_poly trick —
  // bias the P-limb by floor(P/2) so the floor division rounds).
  const rns::Modulus& p = pctx.modulus(special_);
  const u64 half = p.value() >> 1;
  u64* const acc_p[2] = {scratch.acc_p0.data(), scratch.acc_p1.data()};
  be.parallel_for(2, [&](std::size_t c, std::size_t) {
    const std::span<u64> r(acc_p[c], n);
    pctx.ntt(special_).inverse(r);
    for (std::size_t i = 0; i < n; ++i) r[i] = p.add(r[i], half);
    xf::op_counts().poly_add += n;
  });
  poly::RnsPoly* const outs[2] = {&out0, &out1};
  be.parallel_for(2 * level, [&](std::size_t item, std::size_t worker) {
    const std::size_t c = item / level;
    const std::size_t j = item % level;
    const rns::Modulus& q = pctx.modulus(j);
    const std::span<const u64> r(acc_p[c], n);
    const std::span<u64> tmp = slice(scratch.tmp, worker, n);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = q.sub(q.reduce(r[i]), half_mod_[j]);
    }
    pctx.ntt(j).forward(tmp);
    const std::span<u64> dst = outs[c]->limb(j);
    const simd::DyadicModulus& dm = pctx.dyadic(j);
    // Fused (dst - tmp) * P^{-1}: one pass instead of sub + mul_scalar.
    simd::dyadic_sub_mul_scalar(dm, dst.data(), tmp.data(), n,
                                p_inv_[j].operand, p_inv_[j].quotient);
    xf::op_counts().poly_mul += n;
    xf::op_counts().poly_add += 2 * n;
  });

  ks_metrics().accumulations.inc();
  if (obs::Trace* t = obs::active_trace()) t->ks_accumulations += 1;
}

}  // namespace abc::ckks
