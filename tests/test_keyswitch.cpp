#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "backend/scalar_backend.hpp"
#include "backend/thread_pool_backend.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keyswitch.hpp"
#include "ckks/noise.hpp"
#include "ckks/serialize.hpp"
#include "simd/simd_caps.hpp"

namespace abc {
namespace {

std::vector<std::complex<double>> random_slots(std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> v(count);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

void expect_identical_poly(const poly::RnsPoly& a, const poly::RnsPoly& b,
                           const std::string& what) {
  ASSERT_EQ(a.limbs(), b.limbs()) << what;
  ASSERT_EQ(a.domain(), b.domain()) << what;
  for (std::size_t l = 0; l < a.limbs(); ++l) {
    const std::span<const u64> la = a.limb(l);
    const std::span<const u64> lb = b.limb(l);
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j], lb[j]) << what << " limb " << l << " coeff " << j;
    }
  }
}

void expect_identical_ct(const ckks::Ciphertext& a, const ckks::Ciphertext& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_DOUBLE_EQ(a.scale, b.scale) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical_poly(a.c(i), b.c(i),
                          what + " component " + std::to_string(i));
  }
}

struct Fixture {
  std::shared_ptr<const ckks::CkksContext> ctx;
  ckks::CkksEncoder encoder;
  ckks::KeyGenerator keygen;
  ckks::SecretKey sk;
  ckks::Encryptor enc;
  ckks::Decryptor dec;
  ckks::Evaluator eval;

  explicit Fixture(std::shared_ptr<backend::PolyBackend> backend = nullptr,
                   int log_n = 10, std::size_t limbs = 3)
      : ctx(ckks::CkksContext::create(ckks::CkksParams::test_small(log_n, limbs),
                                      std::move(backend))),
        encoder(ctx),
        keygen(ctx),
        sk(keygen.secret_key()),
        enc(ctx, keygen.public_key(sk)),
        dec(ctx, sk),
        eval(ctx) {}
};

TEST(GaloisEvalTable, MatchesCoefficientAutomorphism) {
  // The load-bearing claim behind rotating the digits during accumulation:
  // sigma_g is a pure index permutation of the NTT evaluation points,
  // bit-exact against the coefficient-domain automorphism + forward NTT.
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  poly::RnsPoly p = ctx->make_poly(3, poly::Domain::kEval);
  ckks::fill_uniform_eval(*ctx, p, ckks::PrngDomain::kPublicA, 4242);

  std::vector<u32> table;
  for (const u32 elt : {ckks::galois_element(1, ctx->n()),
                        ckks::galois_element(-3, ctx->n()),
                        ckks::galois_element(77, ctx->n()),
                        static_cast<u32>(2 * ctx->n() - 1)}) {
    poly::RnsPoly coeff_path = p;
    coeff_path.to_coeff();
    coeff_path = coeff_path.automorphism(elt);
    coeff_path.to_eval();

    ckks::build_galois_eval_table(10, elt, table);
    poly::RnsPoly eval_path = ctx->make_poly(3, poly::Domain::kEval);
    ckks::apply_galois_eval(p, table, eval_path);
    expect_identical_poly(coeff_path, eval_path,
                          "galois element " + std::to_string(elt));
  }
}

TEST(KeySwitcher, SwitchedPhaseMatchesDirectProduct) {
  // Core algebraic identity, message-free: key-switching a polynomial c
  // under a key for s' must produce (out0, out1) with out0 + out1*s close
  // to c*s' — the noise is the digit-error sum divided by P.
  Fixture f;
  const ckks::RelinKey rlk = f.keygen.relin_key(f.sk);
  ckks::KeySwitcher ks(f.ctx);
  EXPECT_EQ(ks.special_prime_index(), 2u);

  const std::size_t level = 2;
  poly::RnsPoly c = f.ctx->make_poly(level, poly::Domain::kEval);
  ckks::fill_uniform_eval(*f.ctx, c, ckks::PrngDomain::kPublicA, 999);

  poly::RnsPoly c_coeff = c;
  c_coeff.to_coeff();
  ckks::KeySwitchScratch scratch;
  poly::RnsPoly out0 = f.ctx->make_poly(level, poly::Domain::kEval);
  poly::RnsPoly out1 = f.ctx->make_poly(level, poly::Domain::kEval);
  ks.switch_key(c_coeff, rlk.key, {}, scratch, out0, out1);

  const poly::RnsPoly s = f.sk.s.prefix_copy(level);
  poly::RnsPoly s2 = s;
  s2.mul_inplace(s);
  poly::RnsPoly expect = c;
  expect.mul_inplace(s2);  // c * s'

  poly::RnsPoly phase = out0;
  phase.fma_inplace(out1, s);
  phase.sub_inplace(expect);
  phase.to_coeff();
  const double bound =
      ckks::keyswitch_noise_bound(f.ctx->params(), level);
  for (std::size_t l = 0; l < phase.limbs(); ++l) {
    const rns::Modulus& q = f.ctx->poly_context()->modulus(l);
    for (u64 v : phase.limb(l)) {
      ASSERT_LE(std::abs(static_cast<double>(q.to_centered(v))), bound)
          << "limb " << l;
    }
  }
}

TEST(KeySwitcher, FullLevelCiphertextRejected) {
  Fixture f;
  const ckks::RelinKey rlk = f.keygen.relin_key(f.sk);
  ckks::KeySwitcher ks(f.ctx);
  poly::RnsPoly c = f.ctx->make_poly(3, poly::Domain::kCoeff);
  ckks::KeySwitchScratch scratch;
  poly::RnsPoly o0 = f.ctx->make_poly(1, poly::Domain::kEval);
  poly::RnsPoly o1 = f.ctx->make_poly(1, poly::Domain::kEval);
  EXPECT_THROW(ks.switch_key(c, rlk.key, {}, scratch, o0, o1),
               InvalidArgument);
}

TEST(Evaluator, RelinearizedMatchesThreeComponentDecrypt) {
  Fixture f;
  const ckks::RelinKey rlk = f.keygen.relin_key(f.sk);
  const auto za = random_slots(f.encoder.slots(), 21);
  const auto zb = random_slots(f.encoder.slots(), 22);
  const ckks::Ciphertext ca = f.enc.encrypt(f.encoder.encode(za, 2));
  const ckks::Ciphertext cb = f.enc.encrypt(f.encoder.encode(zb, 2));
  const ckks::Ciphertext prod3 = f.eval.mul(ca, cb);

  ckks::Ciphertext prod2 = prod3;
  f.eval.relinearize_inplace(prod2, rlk);
  ASSERT_EQ(prod2.size(), 2u);
  EXPECT_EQ(prod2.limbs(), prod3.limbs());
  EXPECT_DOUBLE_EQ(prod2.scale, prod3.scale);

  // Both decrypts see the same message; the relinearized one adds only
  // the key-switch noise.
  const auto direct = f.encoder.decode(f.dec.decrypt(prod3));
  const auto relin = f.encoder.decode(f.dec.decrypt(prod2));
  const double tol = ckks::slot_error_bound(
      ckks::keyswitch_noise_bound(f.ctx->params(), prod2.limbs()),
      prod2.scale);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_NEAR(direct[i].real(), relin[i].real(), tol) << i;
    ASSERT_NEAR(direct[i].imag(), relin[i].imag(), tol) << i;
  }
  // And the product still matches the cleartext computation.
  for (std::size_t i = 0; i < za.size(); ++i) {
    const auto expect = za[i] * zb[i];
    ASSERT_NEAR(relin[i].real(), expect.real(), 5e-3) << i;
    ASSERT_NEAR(relin[i].imag(), expect.imag(), 5e-3) << i;
  }
  // Relinearized ciphertexts multiply again (the depth story).
  EXPECT_NO_THROW(f.eval.mul(prod2, prod2));
  EXPECT_THROW(f.eval.mul(prod3, prod3), InvalidArgument);
}

TEST(Evaluator, RotateActsAsLeftCyclicShift) {
  Fixture f;
  const std::size_t slots = f.encoder.slots();
  const auto z = random_slots(slots, 23);
  const ckks::Ciphertext ct = f.enc.encrypt(f.encoder.encode(z, 2));
  const std::vector<int> steps = {1, 2, -1, 7};
  const ckks::GaloisKeys gks = f.keygen.galois_keys(f.sk, steps);

  for (const int step : steps) {
    const ckks::Ciphertext rot = f.eval.rotate(ct, step, gks);
    EXPECT_EQ(rot.size(), 2u);
    EXPECT_EQ(rot.limbs(), ct.limbs());
    const auto got = f.encoder.decode(f.dec.decrypt(rot));
    for (std::size_t i = 0; i < slots; ++i) {
      const auto expect =
          z[(i + static_cast<std::size_t>(step + 2 * (int)slots)) % slots];
      ASSERT_NEAR(got[i].real(), expect.real(), 1e-3)
          << "step " << step << " slot " << i;
      ASSERT_NEAR(got[i].imag(), expect.imag(), 1e-3)
          << "step " << step << " slot " << i;
    }
  }
}

TEST(Evaluator, RotationRoundTripsAcrossThreadCounts) {
  // rotate by k then -k restores the message, and the round-tripped
  // ciphertext is bit-identical across the scalar backend and pools of
  // 1/2/8 workers (the repo-wide determinism contract).
  const auto run = [](std::shared_ptr<backend::PolyBackend> be) {
    Fixture f(std::move(be));
    const auto z = random_slots(f.encoder.slots(), 24);
    const ckks::Ciphertext ct = f.enc.encrypt(f.encoder.encode(z, 2));
    const std::vector<int> steps = {3, -3};
    const ckks::GaloisKeys gks = f.keygen.galois_keys(f.sk, steps);
    const ckks::Ciphertext back =
        f.eval.rotate(f.eval.rotate(ct, 3, gks), -3, gks);
    const auto got = f.encoder.decode(f.dec.decrypt(back));
    for (std::size_t i = 0; i < z.size(); ++i) {
      EXPECT_NEAR(got[i].real(), z[i].real(), 1e-3) << i;
      EXPECT_NEAR(got[i].imag(), z[i].imag(), 1e-3) << i;
    }
    return back;
  };
  const ckks::Ciphertext ref = run(std::make_shared<backend::ScalarBackend>());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical_ct(
        ref, run(std::make_shared<backend::ThreadPoolBackend>(threads)),
        "round trip at " + std::to_string(threads) + " threads");
  }
}

TEST(Evaluator, KeySwitchPipelineIsKernelArchInvariant) {
  // Forced-arch matrix: the relinearize -> rescale -> rotate pipeline
  // (covering the fused gadget-accumulate, sub_mul_scalar and fms_into
  // paths on every tier) must produce bit-identical ciphertexts whether
  // the portable, AVX2 or AVX-512/IFMA kernels execute it.
  struct ArchGuard {
    ~ArchGuard() {
      simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
    }
  } guard;
  const auto run = [](simd::KernelArch arch) {
    simd::set_kernel_arch_for_testing(arch);
    Fixture f;
    const auto z = random_slots(f.encoder.slots(), 91);
    const ckks::Ciphertext ct = f.enc.encrypt(f.encoder.encode(z, 2));
    const ckks::RelinKey rlk = f.keygen.relin_key(f.sk);
    const std::vector<int> steps = {5};
    const ckks::GaloisKeys gks = f.keygen.galois_keys(f.sk, steps);
    ckks::Ciphertext prod = f.eval.mul(ct, ct);
    f.eval.relinearize_inplace(prod, rlk);
    f.eval.rescale_inplace(prod);
    return f.eval.rotate(prod, 5, gks);
  };
  std::vector<simd::KernelArch> arches = {simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) arches.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable())
    arches.push_back(simd::KernelArch::kAvx512Ifma);
  const ckks::Ciphertext ref = run(arches[0]);
  for (std::size_t i = 1; i < arches.size(); ++i) {
    expect_identical_ct(ref, run(arches[i]),
                        std::string("arch ") +
                            simd::kernel_arch_name(arches[i]));
  }
}

TEST(Evaluator, RelinearizationIsThreadCountInvariant) {
  const auto run = [](std::shared_ptr<backend::PolyBackend> be) {
    Fixture f(std::move(be));
    const auto za = random_slots(f.encoder.slots(), 26);
    const auto zb = random_slots(f.encoder.slots(), 27);
    ckks::Ciphertext prod = f.eval.mul(f.enc.encrypt(f.encoder.encode(za, 2)),
                                       f.enc.encrypt(f.encoder.encode(zb, 2)));
    f.eval.relinearize_inplace(prod, f.keygen.relin_key(f.sk));
    return prod;
  };
  const ckks::Ciphertext ref = run(std::make_shared<backend::ScalarBackend>());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical_ct(
        ref, run(std::make_shared<backend::ThreadPoolBackend>(threads)),
        "relinearization at " + std::to_string(threads) + " threads");
  }
}

TEST(Evaluator, KeySwitchArgumentValidation) {
  Fixture f;
  const ckks::RelinKey rlk = f.keygen.relin_key(f.sk);
  const std::vector<int> one_step = {1};
  const ckks::GaloisKeys gks = f.keygen.galois_keys(f.sk, one_step);
  const auto z = random_slots(f.encoder.slots(), 28);

  // Full-level inputs must rescale/mod-switch first (special modulus).
  ckks::Ciphertext full = f.enc.encrypt(f.encoder.encode(z, 3));
  EXPECT_THROW(f.eval.rotate(full, 1, gks), InvalidArgument);
  ckks::Ciphertext full3 = f.eval.mul(full, full);
  EXPECT_THROW(f.eval.relinearize_inplace(full3, rlk), InvalidArgument);
  EXPECT_EQ(full3.size(), 3u);  // the failed call must not mutate its input

  // Relinearize needs 3 components; rotate needs 2.
  ckks::Ciphertext two = f.enc.encrypt(f.encoder.encode(z, 2));
  EXPECT_THROW(f.eval.relinearize_inplace(two, rlk), InvalidArgument);
  ckks::Ciphertext three = f.eval.mul(two, two);
  EXPECT_THROW(f.eval.rotate(three, 1, gks), InvalidArgument);

  // Missing step and mismatched key kinds are rejected.
  EXPECT_THROW(f.eval.rotate(two, 2, gks), InvalidArgument);
  ckks::GaloisKeys wrong_kind = gks;
  wrong_kind.keys[0].kind = ckks::KeySwitchKey::Kind::kRelin;
  EXPECT_THROW(f.eval.rotate(two, 1, wrong_kind), InvalidArgument);
}

TEST(VerifyDecode, ReportsPassAndFailure) {
  Fixture f;
  const auto z = random_slots(f.encoder.slots(), 29);
  const ckks::Ciphertext ct = f.enc.encrypt(f.encoder.encode(z, 2));

  const ckks::VerifyReport pass = ckks::verify_decode(
      *f.ctx, ct, f.dec, f.encoder, z);
  EXPECT_TRUE(pass.ok);
  EXPECT_GT(pass.precision_bits, 10.0);
  EXPECT_LE(pass.max_abs_error, pass.bound);

  // An impossible bound fails; a wrong expectation fails loudly too.
  const ckks::VerifyReport fail_bound =
      ckks::verify_decode(*f.ctx, ct, f.dec, f.encoder, z, 1e-300);
  EXPECT_FALSE(fail_bound.ok);
  auto wrong = z;
  wrong[0] += 1.0;
  const ckks::VerifyReport fail_value =
      ckks::verify_decode(*f.ctx, ct, f.dec, f.encoder, wrong);
  EXPECT_FALSE(fail_value.ok);
  EXPECT_GE(fail_value.max_abs_error, 0.5);
}

TEST(KeySwitchEndToEnd, ClientKeysServeRemoteEvaluation) {
  // The full loop the subsystem exists for: the client generates keys and
  // ships them seed-compressed; a "server" (its own context handle +
  // thread pool) restores them, relinearizes a product and applies two
  // distinct rotations; the client decrypts and verifies the values. The
  // server result must be bit-identical across backends.
  const ckks::CkksParams params = ckks::CkksParams::test_small(10, 3);
  auto client = ckks::CkksContext::create(params);
  ckks::CkksEncoder encoder(client);
  ckks::KeyGenerator keygen(client);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(client, keygen.public_key(sk));
  ckks::Decryptor dec(client, sk);

  // Client: keys + inputs, all seed-compressed on the wire.
  const std::vector<int> steps = {1, 3};
  const std::vector<u8> rlk_wire =
      serialize_key_switch_key(client, keygen.relin_key(sk).key, 44, true);
  const ckks::GaloisKeys gkeys = keygen.galois_keys(sk, steps);
  std::vector<std::vector<u8>> gk_wire;
  for (const ckks::KeySwitchKey& k : gkeys.keys) {
    gk_wire.push_back(serialize_key_switch_key(client, k, 44, true));
  }
  const std::size_t slots = encoder.slots();
  const auto za = random_slots(slots, 30);
  const auto zb = random_slots(slots, 31);
  const std::vector<u8> ca_wire =
      serialize_ciphertext(enc.encrypt(encoder.encode(za, 2)), 44);
  const std::vector<u8> cb_wire =
      serialize_ciphertext(enc.encrypt(encoder.encode(zb, 2)), 44);

  // Server: deserialize everything, evaluate rotate(a*b, 1) + rotate(.., 3).
  const auto serve = [&](std::shared_ptr<backend::PolyBackend> be) {
    auto server = ckks::CkksContext::create(params, std::move(be));
    ckks::Evaluator eval(server);
    ckks::RelinKey rlk{deserialize_key_switch_key(server, rlk_wire)};
    ckks::GaloisKeys gks;
    gks.slots = server->slots();
    gks.steps = steps;
    for (const auto& wire : gk_wire) {
      gks.keys.push_back(deserialize_key_switch_key(server, wire));
    }
    ckks::Ciphertext prod =
        eval.mul(deserialize_ciphertext(server, ca_wire),
                 deserialize_ciphertext(server, cb_wire));
    ckks::KeySwitchScratch scratch;
    eval.relinearize_inplace(prod, rlk, &scratch);
    return serialize_ciphertext(eval.add(eval.rotate(prod, 1, gks, &scratch),
                                         eval.rotate(prod, 3, gks, &scratch)),
                                44);
  };

  const std::vector<u8> result_wire =
      serve(std::make_shared<backend::ThreadPoolBackend>(4));
  EXPECT_EQ(result_wire, serve(std::make_shared<backend::ScalarBackend>()))
      << "server result differs across backends";
  const ckks::Ciphertext result = deserialize_ciphertext(client, result_wire);

  // Client: verify the returned ciphertext decodes to rot1(ab) + rot3(ab).
  std::vector<std::complex<double>> expect(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    expect[i] = za[(i + 1) % slots] * zb[(i + 1) % slots] +
                za[(i + 3) % slots] * zb[(i + 3) % slots];
  }
  const ckks::VerifyReport report = ckks::verify_decode(
      *client, result, dec, encoder, expect, 5e-3);
  EXPECT_TRUE(report.ok) << "max error " << report.max_abs_error;
}

}  // namespace
}  // namespace abc
