#include "ckks/decryptor.hpp"

namespace abc::ckks {

namespace {

const CkksContext& require_context(
    const std::shared_ptr<const CkksContext>& ctx) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  return *ctx;
}

}  // namespace

Decryptor::Decryptor(std::shared_ptr<const CkksContext> ctx,
                     const SecretKey& sk)
    : ctx_(std::move(ctx)),
      sk_eval_(sk.s),
      s_(require_context(ctx_).make_poly(1, poly::Domain::kEval)),
      s2_(ctx_->make_poly(1, poly::Domain::kEval)) {}

Plaintext Decryptor::decrypt(const Ciphertext& ct) {
  ABC_CHECK_ARG(ct.size() == 2 || ct.size() == 3,
                "ciphertext must have 2 or 3 components");
  const std::size_t limbs = ct.limbs();
  ABC_CHECK_ARG(limbs >= 1 && limbs <= sk_eval_.limbs(),
                "ciphertext level exceeds the key's limb count");
  for (std::size_t c = 1; c < ct.size(); ++c) {
    ABC_CHECK_ARG(ct.c(c).limbs() == limbs,
                  "ciphertext components disagree on the level");
  }
  s_.assign_prefix(sk_eval_, limbs);

  // phase = c0 + c1*s (+ c2*s^2), built in one fused pass instead of
  // copying c0 and re-streaming it through fma; the result is the
  // returned plaintext.
  poly::RnsPoly phase(ct.c(0).context_ptr(), limbs, poly::Domain::kEval);
  phase.set_fma(ct.c(0), ct.c(1), s_);
  if (ct.size() == 3) {
    s2_.assign_prefix(s_, limbs);
    s2_.mul_inplace(s_);
    phase.fma_inplace(ct.c(2), s2_);
  }
  phase.to_coeff();
  return Plaintext{std::move(phase), ct.scale};
}

std::vector<Plaintext> Decryptor::decrypt_batch(
    std::span<const Ciphertext> cts) {
  std::vector<Plaintext> out;
  out.reserve(cts.size());
  for (const Ciphertext& ct : cts) out.push_back(decrypt(ct));
  return out;
}

}  // namespace abc::ckks
