#include "ckks/encryptor.hpp"

#include "simd/sampler_kernels.hpp"
#include "transform/op_counter.hpp"

namespace abc::ckks {

namespace {

/// Checks that @p p can be read in place for the first @p limbs limbs of
/// an encryption under @p pctx.
void check_operand(const poly::PolyContext& pctx, const poly::RnsPoly& p,
                   std::size_t limbs, poly::Domain domain) {
  ABC_CHECK_ARG(&p.context() == &pctx, "context mismatch");
  ABC_CHECK_ARG(p.limbs() >= limbs, "limb count mismatch");
  ABC_CHECK_ARG(p.domain() == domain, "domain mismatch");
}

/// out[j] = e[j] (+ m[j]) mod q: the q-limb of the RNS expansion of the
/// signed words e, with the plaintext limb m (when given) added in the same
/// pass. Counts what set_from_signed_i32 (and add_inplace) count per limb.
template <class I>
void lift_limb(const rns::Modulus& q, u64* out, const std::vector<I>& e,
               const u64* m) {
  const std::size_t n = e.size();
  simd::lift_signed(q, out, e.data(), m, n);
  if (m != nullptr) xf::op_counts().poly_add += n;
  xf::op_counts().other += n;
}

/// Two uninitialized evaluation-form components at @p limbs limbs, moved
/// into place (a braced component list would deep-copy both). Both
/// encrypt paths write every coefficient of both.
Ciphertext make_output(const CkksContext& ctx, std::size_t limbs,
                       double scale) {
  Ciphertext ct;
  ct.components.reserve(2);
  for (int c = 0; c < 2; ++c) {
    ct.components.push_back(
        ctx.make_poly_for_overwrite(limbs, poly::Domain::kEval));
  }
  ct.scale = scale;
  return ct;
}

}  // namespace

Encryptor::Encryptor(std::shared_ptr<const CkksContext> ctx, PublicKey pk)
    : ctx_(std::move(ctx)),
      mode_(EncryptMode::kPublicKey),
      pk_(std::make_unique<PublicKey>(std::move(pk))),
      // The pk's stream id carries its secret's id in the upper 32 bits
      // (ksk_base_stream_id), which is exactly the salt we need.
      secret_salt_(pk_->stream_id >> 32) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  // Same budget the write path enforces: an oversized salt would be
  // truncated by the limb fold and could alias streams across secrets.
  ABC_CHECK_ARG(secret_salt_ < (u64{1} << 16),
                "public key stream id exceeds the 16-bit salt budget");
}

Encryptor::Encryptor(std::shared_ptr<const CkksContext> ctx,
                     const SecretKey& sk)
    : ctx_(std::move(ctx)),
      mode_(EncryptMode::kSymmetricSeeded),
      s_(sk.s),
      secret_salt_(sk.stream_id) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  ABC_CHECK_ARG(s_ != nullptr, "empty secret key");
  ABC_CHECK_ARG(sk.stream_id < (u64{1} << 16),
                "secret stream id exceeds the 16-bit salt budget");
}

Ciphertext Encryptor::encrypt(const Plaintext& pt) {
  return encrypt(pt, reserve_stream_ids(1));
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, u64 stream_id) {
  ABC_CHECK_ARG(pt.poly.domain() == poly::Domain::kCoeff,
                "plaintext must be in coefficient form");
  ABC_CHECK_ARG(stream_id < (u64{1} << 31),
                "stream id exceeds the 31-bit counter budget");
  return mode_ == EncryptMode::kPublicKey ? encrypt_public(pt, stream_id)
                                          : encrypt_symmetric(pt, stream_id);
}

std::vector<Ciphertext> Encryptor::encrypt_plaintexts(
    std::span<const Plaintext> plaintexts) {
  const u64 base = reserve_stream_ids(plaintexts.size());
  std::vector<Ciphertext> out;
  out.reserve(plaintexts.size());
  for (std::size_t i = 0; i < plaintexts.size(); ++i) {
    out.push_back(encrypt(plaintexts[i], base + i));
  }
  return out;
}

Ciphertext Encryptor::encrypt_public(const Plaintext& pt, u64 id) {
  Scratch& s = scratch_;
  const std::size_t limbs = pt.limbs();
  const poly::PolyContext& pctx = *ctx_->poly_context();
  const std::size_t n = pctx.n();
  check_operand(pctx, pt.poly, limbs, poly::Domain::kCoeff);
  check_operand(pctx, pk_->b, limbs, poly::Domain::kEval);
  check_operand(pctx, pk_->a, limbs, poly::Domain::kEval);

  // Ternary mask u and errors e0, e1, each sampled once as signed words.
  sample_ternary(*ctx_, PrngDomain::kEncryptMask, salted(id), s.mask);
  sample_gaussian(*ctx_, PrngDomain::kEncryptError, salted(2 * id), s.err0);
  sample_gaussian(*ctx_, PrngDomain::kEncryptError, salted(2 * id + 1),
                  s.err1);
  s.staging.resize(pctx.backend().workers() * n);

  Ciphertext ct = make_output(*ctx_, limbs, pt.scale);
  poly::RnsPoly& c0 = ct.c(0);
  poly::RnsPoly& c1 = ct.c(1);
  pctx.backend().parallel_for(limbs, [&](std::size_t i, std::size_t w) {
    const rns::Modulus& q = pctx.modulus(i);
    const simd::DyadicModulus& dm = pctx.dyadic(i);
    u64* const u = s.staging.data() + w * n;
    u64* const c0i = c0.limb(i).data();
    u64* const c1i = c1.limb(i).data();
    // NTT(u) in the worker's staging limb (NTT pass 1 of 3).
    lift_limb(q, u, s.mask, nullptr);
    pctx.ntt(i).forward({u, n});
    // c0_i = NTT(m + e0) + b_i * u (pass 2).
    lift_limb(q, c0i, s.err0, pt.poly.limb(i).data());
    pctx.ntt(i).forward({c0i, n});
    simd::dyadic_fma_into(dm, c0i, c0i, pk_->b.limb(i).data(), u, n);
    // c1_i = NTT(e1) + a_i * u (pass 3).
    lift_limb(q, c1i, s.err1, nullptr);
    pctx.ntt(i).forward({c1i, n});
    simd::dyadic_fma_into(dm, c1i, c1i, pk_->a.limb(i).data(), u, n);
    xf::op_counts().poly_mul += 2 * n;  // two mul + add chains
    xf::op_counts().poly_add += 2 * n;
  });
  return ct;
}

Ciphertext Encryptor::encrypt_symmetric(const Plaintext& pt, u64 raw_id) {
  Scratch& s = scratch_;
  const std::size_t limbs = pt.limbs();
  const u64 id = salted(raw_id);  // the wire id (CompressedComponent)
  const poly::PolyContext& pctx = *ctx_->poly_context();
  const std::size_t n = pctx.n();
  check_operand(pctx, pt.poly, limbs, poly::Domain::kCoeff);
  check_operand(pctx, *s_, limbs, poly::Domain::kEval);

  sample_gaussian(*ctx_, PrngDomain::kSymmetricError, id, s.err0);
  s.staging.resize(pctx.backend().workers() * n);

  // Per limb: NTT(m + e) in the worker's staging limb, a_i from its own
  // stream (regenerable, never shipped), then c0_i = (m + e) - a_i * s_i
  // in one pass over the secret's limb read in place.
  Ciphertext ct = make_output(*ctx_, limbs, pt.scale);
  poly::RnsPoly& c0 = ct.c(0);
  poly::RnsPoly& a = ct.c(1);
  pctx.backend().parallel_for(limbs, [&](std::size_t i, std::size_t w) {
    u64* const me = s.staging.data() + w * n;
    lift_limb(pctx.modulus(i), me, s.err0, pt.poly.limb(i).data());
    pctx.ntt(i).forward({me, n});
    fill_uniform_limb(*ctx_, a.limb(i), i, PrngDomain::kSymmetricA, id);
    simd::dyadic_fms_into(pctx.dyadic(i), c0.limb(i).data(), me,
                          a.limb(i).data(), s_->limb(i).data(), n);
    xf::op_counts().poly_mul += n;  // mul + negate + add
    xf::op_counts().poly_add += 2 * n;
  });
  ct.compressed_c1 = CompressedComponent{id};
  return ct;
}

}  // namespace abc::ckks
