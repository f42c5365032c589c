#include "ckks/keygen.hpp"

#include "common/failpoint.hpp"
#include "prng/samplers.hpp"
#include "transform/op_counter.hpp"

namespace abc::ckks {

void fill_uniform_limb(const CkksContext& ctx, std::span<u64> dst,
                       std::size_t limb, PrngDomain domain, u64 stream_id) {
  // One stream per (domain, id, limb): limb folded into the stream id's
  // upper bits so streams never collide for < 2^32 uses.
  prng::ChaCha20 rng(ctx.params().seed,
                     (stream_id << 16) | static_cast<u64>(limb),
                     static_cast<u32>(domain));
  prng::UniformModSampler sampler(ctx.poly_context()->modulus(limb).value());
  sampler.sample_many(rng, dst);
  xf::op_counts().other += dst.size();
}

void fill_uniform_eval(const CkksContext& ctx, poly::RnsPoly& dst,
                       PrngDomain domain, u64 stream_id) {
  for (std::size_t i = 0; i < dst.limbs(); ++i) {
    fill_uniform_limb(ctx, dst.limb(i), i, domain, stream_id);
  }
}

void sample_ternary(const CkksContext& ctx, PrngDomain domain, u64 stream_id,
                    std::vector<i8>& out) {
  prng::ChaCha20 rng(ctx.params().seed, stream_id,
                     static_cast<u32>(domain));
  out.resize(ctx.n());
  prng::TernarySampler().sample_many(rng, out);
}

void sample_gaussian(const CkksContext& ctx, PrngDomain domain, u64 stream_id,
                     std::vector<i32>& out) {
  prng::ChaCha20 rng(ctx.params().seed, stream_id,
                     static_cast<u32>(domain));
  out.resize(ctx.n());
  prng::DiscreteGaussianSampler(ctx.params().error_sigma)
      .sample_many(rng, out);
}

void fill_ternary_coeff(const CkksContext& ctx, poly::RnsPoly& dst,
                        PrngDomain domain, u64 stream_id,
                        SamplerScratch* scratch) {
  SamplerScratch local;
  SamplerScratch& s = scratch ? *scratch : local;
  sample_ternary(ctx, domain, stream_id, s.ternary);
  s.wide.assign(s.ternary.begin(), s.ternary.end());
  dst.set_from_signed_i32(s.wide);
}

void fill_gaussian_coeff(const CkksContext& ctx, poly::RnsPoly& dst,
                         PrngDomain domain, u64 stream_id,
                         SamplerScratch* scratch) {
  SamplerScratch local;
  SamplerScratch& s = scratch ? *scratch : local;
  sample_gaussian(ctx, domain, stream_id, s.wide);
  dst.set_from_signed_i32(s.wide);
}

u32 galois_element(int step, std::size_t n) {
  const std::size_t two_n = 2 * n;
  const auto slots = static_cast<long long>(n / 2);
  const long long r = ((step % slots) + slots) % slots;
  ABC_CHECK_ARG(r != 0, "rotation step must be nonzero mod slots");
  // 3^r mod 2N by square-and-multiply (2N <= 2^17, products fit u64).
  // The base must match the canonical-embedding generator: the encoder
  // places slot i at the evaluation point zeta^{3^i} (CkksDwtPlan), so
  // sigma_{3^r} sends slot i to slot i - r — a cyclic rotation. Any other
  // odd generator (e.g. 5 = -3^j mod 2N) would permute slots into the
  // conjugate orbit instead of shifting them.
  u64 g = 1, base = 3 % two_n;
  for (u64 e = static_cast<u64>(r); e != 0; e >>= 1) {
    if (e & 1) g = g * base % two_n;
    base = base * base % two_n;
  }
  return static_cast<u32>(g);
}

PrngDomain ksk_a_domain(KeySwitchKey::Kind kind) {
  return kind == KeySwitchKey::Kind::kRelin ? PrngDomain::kRelinA
                                            : PrngDomain::kGaloisA;
}

PrngDomain ksk_error_domain(KeySwitchKey::Kind kind) {
  return kind == KeySwitchKey::Kind::kRelin ? PrngDomain::kRelinError
                                            : PrngDomain::kGaloisError;
}

u32 ksk_stream_domain(PrngDomain base, u32 galois_elt) {
  // Domain tags occupy the low byte (values 1..11); the element (< 2^17
  // for N <= 2^16) fits the remaining 24 bits of the ChaCha domain word.
  return static_cast<u32>(base) | (galois_elt << 8);
}

std::size_t find_rotation_step(std::span<const int> steps, int step,
                               std::size_t slots) noexcept {
  const auto reduce = [slots](int s) {
    if (slots == 0) return static_cast<long long>(s);
    const auto m = static_cast<long long>(slots);
    return ((s % m) + m) % m;
  };
  const long long want = reduce(step);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (reduce(steps[i]) == want) return i;
  }
  return steps.size();
}

const KeySwitchKey& GaloisKeys::key_for(int step) const {
  const std::size_t i = find_rotation_step(steps, step, slots);
  if (i >= keys.size()) {
    throw InvalidArgument("no Galois key generated for this step");
  }
  return keys[i];
}

namespace {

/// Generates one gadget digit of a key-switching key into (@p b_out,
/// @p a_out): a_d uniform and e_d Gaussian from the kind's domains salted
/// with @p galois_elt (see ksk_stream_domain), both at @p stream_id;
/// b_d = -(a_d * s) + e_d + g_d * s'. @p s_neg_eval is the *negated*
/// secret -s in evaluation form (hoisted out so the -(a*s) term is one
/// allocation-free fused multiply-add per digit, not a product copy).
/// Both outputs are reset to full-limb evaluation form. The digit's
/// randomness depends only on (seed, kind, galois_elt, stream_id), so any
/// scheduling of digits across workers yields bit-identical keys — this
/// is the unit of work KeyGenerator fans out.
void generate_ksk_digit(const CkksContext& ctx,
                        const poly::RnsPoly& s_neg_eval,
                        const poly::RnsPoly& s_prime_eval,
                        KeySwitchKey::Kind kind, u32 galois_elt,
                        u64 stream_id, std::size_t digit,
                        poly::RnsPoly& b_out, poly::RnsPoly& a_out,
                        SamplerScratch& scratch) {
  const std::size_t limbs = ctx.max_limbs();
  ABC_CHECK_ARG(digit < limbs, "gadget digit out of range");
  const auto a_domain = static_cast<PrngDomain>(
      ksk_stream_domain(ksk_a_domain(kind), galois_elt));
  const auto error_domain = static_cast<PrngDomain>(
      ksk_stream_domain(ksk_error_domain(kind), galois_elt));

  a_out.reset(limbs, poly::Domain::kEval);
  fill_uniform_eval(ctx, a_out, a_domain, stream_id);

  // b starts as the error, transformed to the evaluation domain.
  b_out.reset(limbs, poly::Domain::kCoeff);
  fill_gaussian_coeff(ctx, b_out, error_domain, stream_id, &scratch);
  b_out.to_eval();

  // b = e + a*(-s), one fused pass with no product buffer.
  b_out.fma_inplace(a_out, s_neg_eval);

  // + g_d * s': the CRT idempotent is 1 mod q_d and 0 elsewhere, so the
  // gadget term only touches limb `digit`.
  const rns::Modulus& q = ctx.poly_context()->modulus(digit);
  const std::span<u64> bd = b_out.limb(digit);
  const std::span<const u64> sp = s_prime_eval.limb(digit);
  for (std::size_t j = 0; j < bd.size(); ++j) bd[j] = q.add(bd[j], sp[j]);
}

}  // namespace

KeyGenerator::KeyGenerator(std::shared_ptr<const CkksContext> ctx)
    : ctx_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
}

SecretKey KeyGenerator::secret_key() {
  // Context-wide id: generators sharing a context draw distinct secrets
  // (two intended-to-be-different users can never end up with the same
  // key because both counters started at 0).
  const u64 id = ctx_->reserve_secret_ids(1);
  poly::RnsPoly s = ctx_->make_poly(ctx_->max_limbs(), poly::Domain::kCoeff);
  fill_ternary_coeff(*ctx_, s, PrngDomain::kSecretKey, id);
  s.to_eval();
  return SecretKey{std::move(s), id};
}

PublicKey KeyGenerator::public_key(const SecretKey& sk) {
  const u64 id = ksk_base_stream_id(sk.stream_id, pk_counter_++);
  poly::RnsPoly a = ctx_->make_poly(ctx_->max_limbs(), poly::Domain::kEval);
  fill_uniform_eval(*ctx_, a, PrngDomain::kPublicA, id);

  poly::RnsPoly e = ctx_->make_poly(ctx_->max_limbs(), poly::Domain::kCoeff);
  fill_gaussian_coeff(*ctx_, e, PrngDomain::kKeygenError, id);
  e.to_eval();

  // b = e - a*s in one fused pass: no copy of a, no product buffer.
  poly::RnsPoly b = ctx_->make_poly(ctx_->max_limbs(), poly::Domain::kEval);
  b.set_fms(e, a, sk.s);
  return PublicKey{std::move(b), std::move(a), id};
}

KeySwitchKey KeyGenerator::make_key_shell(KeySwitchKey::Kind kind,
                                          u32 galois_elt,
                                          const SecretKey& sk) {
  const std::size_t digits = ctx_->max_limbs();
  KeySwitchKey key;
  key.kind = kind;
  key.galois_elt = galois_elt;
  key.base_stream_id = ksk_base_stream_id(sk.stream_id, ksk_counter_);
  ksk_counter_ += digits;
  key.b.reserve(digits);
  key.a.reserve(digits);
  for (std::size_t d = 0; d < digits; ++d) {
    key.b.push_back(ctx_->make_poly(digits, poly::Domain::kEval));
    key.a.push_back(ctx_->make_poly(digits, poly::Domain::kEval));
  }
  return key;
}

void KeyGenerator::generate_digits(const SecretKey& sk,
                                   std::span<KeySwitchKey> keys,
                                   std::span<const poly::RnsPoly> s_primes) {
  poly::RnsPoly s_neg = sk.s;  // one negation per call, shared by digits
  s_neg.negate_inplace();
  const std::size_t digits = ctx_->max_limbs();
  backend::PolyBackend& backend = ctx_->backend();
  std::vector<SamplerScratch> scratch(backend.workers());
  backend.parallel_for(keys.size() * digits, [&](std::size_t i,
                                                 std::size_t worker) {
    KeySwitchKey& key = keys[i / digits];
    const std::size_t d = i % digits;
    ABC_FAILPOINT(fail::points::kKeygenDigit);
    generate_ksk_digit(*ctx_, s_neg, s_primes[i / digits], key.kind,
                       key.galois_elt, key.base_stream_id + d, d, key.b[d],
                       key.a[d], scratch[worker]);
  });
}

RelinKey KeyGenerator::relin_key(const SecretKey& sk) {
  poly::RnsPoly s2 = sk.s;
  s2.mul_inplace(sk.s);
  RelinKey rlk{make_key_shell(KeySwitchKey::Kind::kRelin, 0, sk)};
  generate_digits(sk, std::span(&rlk.key, 1), std::span(&s2, 1));
  return rlk;
}

KeySwitchKey KeyGenerator::galois_key(const SecretKey& sk, int step) {
  return std::move(galois_keys(sk, std::span(&step, 1)).keys.front());
}

GaloisKeys KeyGenerator::galois_keys(const SecretKey& sk,
                                     std::span<const int> steps) {
  GaloisKeys out;
  out.slots = ctx_->slots();
  out.steps.assign(steps.begin(), steps.end());
  if (steps.empty()) return out;
  out.keys.reserve(steps.size());
  std::vector<poly::RnsPoly> rotated;
  rotated.reserve(steps.size());
  poly::RnsPoly s_coeff = sk.s;
  s_coeff.to_coeff();
  for (int step : steps) {
    const u32 elt = galois_element(step, ctx_->n());
    rotated.push_back(s_coeff.automorphism(elt));
    rotated.back().to_eval();
    out.keys.push_back(make_key_shell(KeySwitchKey::Kind::kGalois, elt, sk));
  }
  generate_digits(sk, out.keys, rotated);
  return out;
}

}  // namespace abc::ckks
