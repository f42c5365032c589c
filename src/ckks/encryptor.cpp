#include "ckks/encryptor.hpp"

namespace abc::ckks {

namespace {

const CkksContext& require_context(
    const std::shared_ptr<const CkksContext>& ctx) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  return *ctx;
}

}  // namespace

EncryptScratch::EncryptScratch(const CkksContext& ctx)
    : mask_(ctx.make_poly(1, poly::Domain::kCoeff)),
      me_(ctx.make_poly(1, poly::Domain::kCoeff)),
      err_(ctx.make_poly(1, poly::Domain::kCoeff)) {}

Encryptor::Encryptor(std::shared_ptr<const CkksContext> ctx, PublicKey pk)
    : ctx_(std::move(ctx)),
      mode_(EncryptMode::kPublicKey),
      pk_(std::make_unique<PublicKey>(std::move(pk))),
      // The pk's stream id carries its secret's id in the upper 32 bits
      // (ksk_base_stream_id), which is exactly the salt we need.
      secret_salt_(pk_->stream_id >> 32),
      scratch_(require_context(ctx_)) {
  // Same budget the write path enforces: an oversized salt would be
  // truncated by the limb fold and could alias streams across secrets.
  ABC_CHECK_ARG(secret_salt_ < (u64{1} << 16),
                "public key stream id exceeds the 16-bit salt budget");
}

Encryptor::Encryptor(std::shared_ptr<const CkksContext> ctx,
                     const SecretKey& sk)
    : ctx_(std::move(ctx)),
      mode_(EncryptMode::kSymmetricSeeded),
      sk_eval_(std::make_unique<poly::RnsPoly>(sk.s)),
      secret_salt_(sk.stream_id),
      scratch_(require_context(ctx_)) {
  ABC_CHECK_ARG(sk.stream_id < (u64{1} << 16),
                "secret stream id exceeds the 16-bit salt budget");
}

Ciphertext Encryptor::encrypt(const Plaintext& pt) {
  return encrypt_with(pt, reserve_stream_ids(1), scratch_);
}

Ciphertext Encryptor::encrypt_with(const Plaintext& pt, u64 stream_id,
                                   EncryptScratch& scratch) const {
  ABC_CHECK_ARG(pt.poly.domain() == poly::Domain::kCoeff,
                "plaintext must be in coefficient form");
  ABC_CHECK_ARG(stream_id < (u64{1} << 31),
                "stream id exceeds the 31-bit counter budget");
  return mode_ == EncryptMode::kPublicKey
             ? encrypt_public(pt, stream_id, scratch)
             : encrypt_symmetric(pt, stream_id, scratch);
}

Ciphertext Encryptor::encrypt_public(const Plaintext& pt, u64 id,
                                     EncryptScratch& s) const {
  const std::size_t limbs = pt.limbs();

  // Ternary mask u, transformed (NTT pass 1 of 3).
  poly::RnsPoly& u = s.mask_;
  u.reset(limbs, poly::Domain::kCoeff);
  fill_ternary_coeff(*ctx_, u, PrngDomain::kEncryptMask, salted(id),
                     &s.samplers_);
  u.to_eval();

  // m + e0 folded before the transform (NTT pass 2).
  poly::RnsPoly& me0 = s.me_;
  me0.assign_prefix(pt.poly, limbs);
  poly::RnsPoly& e = s.err_;
  e.reset(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(*ctx_, e, PrngDomain::kEncryptError, salted(2 * id),
                      &s.samplers_);
  me0.add_inplace(e);
  me0.to_eval();

  // c0 = b*u + (m + e0), on the first `limbs` limbs of pk.
  poly::RnsPoly c0 = pk_->b.prefix_copy(limbs);
  c0.mul_inplace(u);
  c0.add_inplace(me0);

  // e1 (NTT pass 3); c1 = a*u + e1.
  e.reset(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(*ctx_, e, PrngDomain::kEncryptError,
                      salted(2 * id + 1), &s.samplers_);
  e.to_eval();
  poly::RnsPoly c1 = pk_->a.prefix_copy(limbs);
  c1.mul_inplace(u);
  c1.add_inplace(e);

  Ciphertext ct{{std::move(c0), std::move(c1)}, pt.scale, std::nullopt};
  return ct;
}

Ciphertext Encryptor::encrypt_symmetric(const Plaintext& pt, u64 raw_id,
                                        EncryptScratch& s) const {
  const std::size_t limbs = pt.limbs();
  const u64 id = salted(raw_id);  // the wire id (CompressedComponent)

  // Uniform a regenerable from (seed, stream id): never shipped.
  poly::RnsPoly a = ctx_->make_poly(limbs, poly::Domain::kEval);
  fill_uniform_eval(*ctx_, a, PrngDomain::kSymmetricA, id);

  // m + e folded before the single NTT pass per limb: the error lands in
  // scratch and m is added onto it, so the plaintext is never copied.
  poly::RnsPoly& me = s.err_;
  me.reset(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(*ctx_, me, PrngDomain::kSymmetricError, id,
                      &s.samplers_);
  me.add_inplace(pt.poly);
  me.to_eval();

  // c0 = (m + e) - a*s in one pass over the secret's first `limbs` limbs,
  // read in place: no secret prefix copy, no product buffer.
  poly::RnsPoly c0 = ctx_->make_poly(limbs, poly::Domain::kEval);
  c0.set_fms(me, a, *sk_eval_);

  Ciphertext ct{{std::move(c0), std::move(a)}, pt.scale,
                CompressedComponent{id}};
  return ct;
}

}  // namespace abc::ckks
