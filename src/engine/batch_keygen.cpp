#include "engine/batch_keygen.hpp"

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::engine {

namespace {

poly::RnsPoly squared(const poly::RnsPoly& s) {
  poly::RnsPoly s2 = s;
  s2.mul_inplace(s);
  return s2;
}

poly::RnsPoly negated(const poly::RnsPoly& s) {
  poly::RnsPoly neg = s;
  neg.negate_inplace();
  return neg;
}

}  // namespace

BatchKeyGenerator::BatchKeyGenerator(
    std::shared_ptr<const ckks::CkksContext> ctx, const ckks::SecretKey& sk)
    : core_(std::move(ctx)),
      s_eval_(sk.s),
      s_neg_eval_(negated(sk.s)),
      secret_id_(sk.stream_id),
      scratch_(core_.ctx()) {}

/// Allocates the key metadata + uninitialized digit polynomials; the base
/// stream id (secret-salted, contiguous counter block) is fixed here,
/// before any fan-out, so scheduling cannot change stream assignment.
ckks::KeySwitchKey BatchKeyGenerator::make_key_shell(
    ckks::KeySwitchKey::Kind kind, u32 galois_elt) {
  const ckks::CkksContext& ctx = core_.ctx();
  const std::size_t digits = ctx.max_limbs();
  ckks::KeySwitchKey key;
  key.kind = kind;
  key.galois_elt = galois_elt;
  key.base_stream_id =
      ckks::ksk_base_stream_id(secret_id_, reserve_stream_ids(digits));
  key.b.reserve(digits);
  key.a.reserve(digits);
  for (std::size_t d = 0; d < digits; ++d) {
    key.b.push_back(ctx.make_poly(digits, poly::Domain::kEval));
    key.a.push_back(ctx.make_poly(digits, poly::Domain::kEval));
  }
  return key;
}

ckks::RelinKey BatchKeyGenerator::relin_key() {
  BatchErrorReport report;
  ckks::RelinKey rlk = relin_key(report);
  report.rethrow_first();
  return rlk;
}

ckks::RelinKey BatchKeyGenerator::relin_key(BatchErrorReport& report) {
  if (!s2_eval_) s2_eval_ = squared(s_eval_);
  ckks::KeySwitchKey key =
      make_key_shell(ckks::KeySwitchKey::Kind::kRelin, 0);
  report = core_.run(key.digits(), [&](std::size_t d, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kKeygenDigit);
    ckks::generate_ksk_digit(core_.ctx(), s_neg_eval_, *s2_eval_,
                             ckks::KeySwitchKey::Kind::kRelin, 0,
                             key.base_stream_id + d, d, key.b[d], key.a[d],
                             &scratch_.at(worker));
  });
  // A switching key is only usable whole: any failed digit voids the key,
  // and the caller gets digits() == 0 rather than a half-written gadget.
  if (!report.ok()) {
    key.b.clear();
    key.a.clear();
  }
  return ckks::RelinKey{std::move(key)};
}

ckks::GaloisKeys BatchKeyGenerator::galois_keys(std::span<const int> steps) {
  BatchErrorReport report;
  ckks::GaloisKeys gks = galois_keys(steps, report);
  report.rethrow_first();
  return gks;
}

ckks::GaloisKeys BatchKeyGenerator::galois_keys(std::span<const int> steps,
                                                BatchErrorReport& report) {
  // Rotated secrets first (each automorphism + NTT already fans its limbs
  // across the pool), then every (step, digit) pair as one flat work
  // list. Counter blocks are reserved in step order before the fan-out,
  // so the result is independent of the worker count and surviving keys
  // are bit-identical to the ones a fault-free call would produce.
  const ckks::CkksContext& ctx = core_.ctx();
  ckks::GaloisKeys out;
  out.slots = ctx.slots();
  out.steps.assign(steps.begin(), steps.end());
  if (steps.empty()) {
    report = BatchErrorReport{};
    return out;
  }
  out.keys.reserve(steps.size());
  std::vector<poly::RnsPoly> rotated;
  rotated.reserve(steps.size());
  poly::RnsPoly s_coeff = s_eval_;
  s_coeff.to_coeff();
  for (int step : steps) {
    const u32 elt = ckks::galois_element(step, ctx.n());
    poly::RnsPoly s_rot = s_coeff.automorphism(elt);
    s_rot.to_eval();
    rotated.push_back(std::move(s_rot));
    out.keys.push_back(
        make_key_shell(ckks::KeySwitchKey::Kind::kGalois, elt));
  }
  const std::size_t digits = ctx.max_limbs();
  const BatchErrorReport per_digit =
      core_.run(steps.size() * digits, [&](std::size_t i, std::size_t worker) {
        const std::size_t k = i / digits;
        const std::size_t d = i % digits;
        ckks::KeySwitchKey& key = out.keys[k];
        ABC_FAILPOINT(fail::points::kKeygenDigit);
        ckks::generate_ksk_digit(ctx, s_neg_eval_, rotated[k],
                                 ckks::KeySwitchKey::Kind::kGalois,
                                 key.galois_elt, key.base_stream_id + d, d,
                                 key.b[d], key.a[d], &scratch_.at(worker));
      });
  // Fold per-digit outcomes to per-step items: a key fails if any of its
  // digits did (lowest failed digit reports), and a failed key is voided —
  // digits() == 0, never a half-written gadget.
  std::vector<ItemStatus> per_step(steps.size());
  for (std::size_t k = 0; k < steps.size(); ++k) {
    for (std::size_t d = 0; d < digits; ++d) {
      const ItemStatus& st = per_digit.items[k * digits + d];
      if (!st.ok && per_step[k].ok) per_step[k] = st;
    }
    if (!per_step[k].ok) {
      out.keys[k].b.clear();
      out.keys[k].a.clear();
    }
  }
  report = BatchErrorReport::fold(std::move(per_step));
  return out;
}

}  // namespace abc::engine
