#include "ckks/decryptor.hpp"

namespace abc::ckks {

Decryptor::Decryptor(const SecretKey& sk) : s_(sk.s) {
  ABC_CHECK_ARG(s_ != nullptr, "empty secret key");
}

Plaintext Decryptor::decrypt(const Ciphertext& ct) {
  ABC_CHECK_ARG(ct.size() == 2 || ct.size() == 3,
                "ciphertext must have 2 or 3 components");
  const std::size_t limbs = ct.limbs();
  ABC_CHECK_ARG(limbs >= 1 && limbs <= s_->limbs(),
                "ciphertext level exceeds the key's limb count");
  for (std::size_t c = 1; c < ct.size(); ++c) {
    ABC_CHECK_ARG(ct.c(c).limbs() == limbs,
                  "ciphertext components disagree on the level");
  }

  // phase = c0 + c1*s (+ c2*s^2), built in one fused pass instead of
  // copying c0 and re-streaming it through fma; the result is the
  // returned plaintext.
  poly::RnsPoly phase(ct.c(0).context_ptr(), limbs, poly::Domain::kEval,
                      poly::kForOverwrite);
  phase.set_fma(ct.c(0), ct.c(1), *s_);
  if (ct.size() == 3) {
    poly::RnsPoly s2 = s_->prefix_copy(limbs);
    s2.mul_inplace(*s_);
    phase.fma_inplace(ct.c(2), s2);
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
