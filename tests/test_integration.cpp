// Cross-module integration tests: full client sessions across parameter
// sets and encryption modes, structural NTT/DWT equivalence (the
// reconfigurable-engine premise), seed-compressed ciphertext
// regeneration, and consistency between the software op counts and the
// accelerator scheduler's workload model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <string>
#include <type_traits>
#include <utility>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "core/simulator.hpp"
#include "engine/client_session.hpp"
#include "rns/ntt_prime.hpp"
#include "transform/dwt.hpp"
#include "transform/ntt.hpp"

namespace abc {
namespace {

std::vector<std::complex<double>> random_slots(std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> v(count);
  for (auto& z : v) z = {dist(rng), dist(rng)};
  return v;
}

// ---- full-session property sweep ----------------------------------------

// gtest names each case by the bytes of its parameter, so the struct has
// no padding: a padding byte would put stack garbage into the test name.
struct SessionCase {
  std::int64_t log_n;
  std::size_t limbs;
  ckks::EncryptMode mode;
  std::int32_t zero_tail = 0;
};
static_assert(sizeof(SessionCase) == 24);
static_assert(std::has_unique_object_representations_v<SessionCase>);

class ClientSessionTest : public ::testing::TestWithParam<SessionCase> {};

TEST_P(ClientSessionTest, EndToEndRoundtrip) {
  const SessionCase c = GetParam();
  auto ctx =
      ckks::CkksContext::create(ckks::CkksParams::test_small(static_cast<int>(c.log_n), c.limbs));
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  std::unique_ptr<ckks::Encryptor> enc;
  if (c.mode == ckks::EncryptMode::kPublicKey) {
    enc = std::make_unique<ckks::Encryptor>(ctx, keygen.public_key(sk));
  } else {
    enc = std::make_unique<ckks::Encryptor>(ctx, sk);
  }
  ckks::Decryptor dec(sk);

  const auto msg = random_slots(encoder.slots(), 1000 + c.log_n);
  const ckks::Ciphertext ct = enc->encrypt(encoder.encode(msg, c.limbs));
  const auto decoded = encoder.decode(dec.decrypt(ct));
  EXPECT_GT(ckks::compare_slots(msg, decoded).precision_bits, 11.0);
}

// gtest names each case by the bytes of its parameter, and the mode sits at
// byte 16, past what a truncated test listing shows. So each instantiation
// holds one case per (log_n, limbs): Sweep mixes modes over distinct
// shapes, and the cases that repeat a shape in the other mode are split by
// mode into PublicKey and Symmetric.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ClientSessionTest,
    ::testing::Values(
        SessionCase{10, 4, ckks::EncryptMode::kSymmetricSeeded},
        SessionCase{11, 3, ckks::EncryptMode::kPublicKey},
        SessionCase{12, 6, ckks::EncryptMode::kSymmetricSeeded}));

INSTANTIATE_TEST_SUITE_P(
    PublicKey, ClientSessionTest,
    ::testing::Values(SessionCase{9, 2, ckks::EncryptMode::kPublicKey},
                      SessionCase{10, 4, ckks::EncryptMode::kPublicKey}));

INSTANTIATE_TEST_SUITE_P(
    Symmetric, ClientSessionTest,
    ::testing::Values(SessionCase{9, 2, ckks::EncryptMode::kSymmetricSeeded}));

// ---- reconfigurable-engine premise ---------------------------------------

TEST(Integration, NttAndDwtShareTwiddleStructure) {
  // The RFE premise (paper Sec. III): NTT and FFT stage twiddles follow
  // the *same* bit-reversed exponent schedule — psi^brv(i) mod q for the
  // NTT, zeta^brv(i) on the unit circle for the DWT. Verify exponent
  // agreement through discrete logarithms of the generated tables.
  const int log_n = 8;
  const rns::Modulus q(rns::select_prime_chain(36, log_n, 1)[0]);
  xf::NttTables ntt(q, log_n);
  xf::CkksDwtPlan dwt(log_n);
  const std::size_t n = std::size_t{1} << log_n;
  for (std::size_t i = 1; i < n; ++i) {
    const u64 e = bit_reverse(i, log_n);
    EXPECT_EQ(ntt.psi_rev(i), q.pow(ntt.psi(), e));
    const xf::Cx<double> w = dwt.psi_rev(i);
    const double angle = std::atan2(w.im, w.re);
    double expect = std::numbers::pi * static_cast<double>(e) / static_cast<double>(n);
    // Wrap into (-pi, pi].
    while (expect > std::numbers::pi) expect -= 2 * std::numbers::pi;
    EXPECT_NEAR(angle, expect, 1e-9) << i;
  }
}

TEST(Integration, SeedCompressedC1Regenerates) {
  auto ctx = ckks::CkksContext::create(ckks::CkksParams::test_small(10, 3));
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, sk);
  ckks::CkksEncoder encoder(ctx);
  const ckks::Ciphertext ct =
      enc.encrypt(encoder.encode(random_slots(8, 3), 3));
  ASSERT_TRUE(ct.compressed_c1.has_value());
  // Regenerate "a" from the stream id alone: must equal the stored c1.
  poly::RnsPoly regen = ctx->make_poly(3, poly::Domain::kEval);
  ckks::fill_uniform_eval(*ctx, regen, ckks::PrngDomain::kSymmetricA,
                          ct.compressed_c1->stream_id);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(std::equal(regen.limb(l).begin(), regen.limb(l).end(),
                           ct.c(1).limb(l).begin()));
  }
  // And the byte accounting reflects the compression.
  EXPECT_LT(ct.packed_bytes(44), 2.0 * ct.c(0).packed_bytes(44));
}

// Client transforms per job, as the scheduler's pass graph issues them and
// as the software's op counters record them.
struct TransformCounts {
  u64 ntt = 0;  // forward NTTs
  u64 intt = 0;
  u64 ifft = 0;  // encode
  u64 fft = 0;   // decode
};

std::string pass_kind(const core::Pass& p) {
  return p.label.substr(0, p.label.find('#'));
}

TransformCounts model_transforms(const std::vector<core::Pass>& passes) {
  TransformCounts c;
  for (const core::Pass& p : passes) {
    const std::string kind = pass_kind(p);
    if (kind == "ntt_msg" || kind == "ntt_rand") ++c.ntt;
    if (kind == "intt") ++c.intt;
    if (kind == "ifft") ++c.ifft;
    if (kind == "fft") ++c.fft;
  }
  return c;
}

/// Decodes transform counts from an op delta at ring degree 2^log_n. Both
/// directions of a transform add the same butterflies; only the inverse
/// adds its N-point scaling pass (+n to ntt_mul in transform/ntt.cpp, +2n
/// to fft_mul in transform/dwt.hpp), which tells the two apart.
TransformCounts software_transforms(const xf::OpCounts& ops, int log_n) {
  const u64 n = u64{1} << log_n;
  const u64 bf = (n / 2) * static_cast<u64>(log_n);  // butterflies/transform
  const u64 ntts = ops.ntt_add / (2 * bf);
  const u64 intt = (ops.ntt_mul - ntts * bf) / n;
  const u64 ffts = ops.fft_add / (6 * bf);
  const u64 iffts = (ops.fft_mul - ffts * 4 * bf) / (2 * n);
  // The decoding is exact: re-encoding it reproduces every counter.
  EXPECT_EQ(ops.ntt_add, ntts * 2 * bf);
  EXPECT_EQ(ops.ntt_mul, ntts * bf + intt * n);
  EXPECT_EQ(ops.fft_add, ffts * 6 * bf);
  EXPECT_EQ(ops.fft_mul, ffts * 4 * bf + iffts * 2 * n);
  return {ntts - intt, intt, iffts, ffts - iffts};
}

void expect_same_transforms(const TransformCounts& software,
                            const TransformCounts& model) {
  EXPECT_EQ(software.ntt, model.ntt);
  EXPECT_EQ(software.intt, model.intt);
  EXPECT_EQ(software.ifft, model.ifft);
  EXPECT_EQ(software.fft, model.fft);
}

TEST(Integration, SchedulerWorkloadMatchesSoftwareOps) {
  // The model-to-code join: for both encryption profiles, one
  // ClientSession round trip (encrypt at the fresh level, the server's
  // level drop, decrypt at the returned level) must run exactly the
  // transforms of the scheduler's encode+encrypt and decode+decrypt pass
  // graphs and ship the components the graph writes out.
  constexpr int kLogN = 10;
  constexpr std::size_t kFresh = 4;
  constexpr std::size_t kReturned = 2;
  for (const auto& [profile, mode] :
       {std::pair{core::EncryptProfile::kSymmetricSeeded,
                  ckks::EncryptMode::kSymmetricSeeded},
        std::pair{core::EncryptProfile::kPublicKey,
                  ckks::EncryptMode::kPublicKey}}) {
    SCOPED_TRACE(mode == ckks::EncryptMode::kPublicKey ? "public key"
                                                       : "symmetric seeded");
    core::ArchConfig cfg = core::ArchConfig::paper_default();
    cfg.log_n = kLogN;
    cfg.fresh_limbs = kFresh;
    cfg.returned_limbs = kReturned;
    cfg.enc_profile = profile;
    const core::JobScheduler scheduler(cfg);
    std::vector<core::Pass> enc_passes;
    std::vector<core::Pass> dec_passes;
    scheduler.add_encode_encrypt(enc_passes, 0, 0);
    scheduler.add_decode_decrypt(dec_passes, 0, 0);
    double model_components = 0;  // ciphertext polynomials written out
    for (const core::Pass& p : enc_passes) {
      if (pass_kind(p) == "dma_out_ct") {
        model_components += p.elems / static_cast<double>(cfg.n() * kFresh);
      }
    }

    auto ctx =
        ckks::CkksContext::create(ckks::CkksParams::test_small(kLogN, kFresh));
    engine::ClientSession session(ctx, {.mode = mode});
    const ckks::Evaluator server(ctx);
    const std::vector<std::vector<std::complex<double>>> msgs{
        random_slots(ctx->slots(), 5)};
    std::vector<ckks::Ciphertext> cts;
    xf::OpCounts up;
    {
      const xf::OpCounterScope scope;
      cts = session.encrypt(msgs, kFresh);
      up = scope.delta();
    }
    const double shipped = cts[0].compressed_c1.has_value() ? 1.0 : 2.0;
    server.mod_switch_to_inplace(cts[0], kReturned);
    std::vector<std::vector<std::complex<double>>> decoded;
    xf::OpCounts down;
    {
      const xf::OpCounterScope scope;
      decoded = session.decrypt_batch(cts);
      down = scope.delta();
    }

    const TransformCounts model_up = model_transforms(enc_passes);
    const TransformCounts model_down = model_transforms(dec_passes);
    EXPECT_EQ(model_up.ntt,
              kFresh * static_cast<u64>(ckks::ntt_passes_per_limb(mode)));
    EXPECT_EQ(model_down.intt, kReturned);
    expect_same_transforms(software_transforms(up, kLogN), model_up);
    expect_same_transforms(software_transforms(down, kLogN), model_down);
    EXPECT_EQ(shipped, model_components);

    double max_err = 0;
    for (std::size_t i = 0; i < msgs[0].size(); ++i) {
      max_err = std::max(max_err, std::abs(msgs[0][i] - decoded[0][i]));
    }
    EXPECT_LT(max_err, 1e-3);
  }
}

TEST(Integration, DecodeDecryptDagShape) {
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.returned_limbs = 2;
  core::JobScheduler scheduler(cfg);
  std::vector<core::Pass> passes;
  scheduler.add_decode_decrypt(passes, 0, 0);
  // DMA in, 2x (phase + INTT), CRT, FFT, DMA out = 8 passes.
  EXPECT_EQ(passes.size(), 8u);
  // Final pass must be the message writeback, reachable from everything.
  EXPECT_EQ(passes.back().unit, core::UnitKind::kDmaOut);
  EXPECT_GT(passes.back().dram_write_bytes_per_elem, 0.0);
}

TEST(Integration, RescaledCiphertextStaysDecryptable) {
  // Depth-3 chain needs the scale close to the prime width, or the scale
  // erodes by q/Delta per rescale (2^6 here) and the precision collapses.
  ckks::CkksParams params = ckks::CkksParams::test_small(10, 5);
  params.scale_bits = 34;
  auto ctx = ckks::CkksContext::create(params);
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor enc(ctx, keygen.public_key(sk));
  ckks::Decryptor dec(sk);
  ckks::Evaluator eval(ctx);

  const auto msg = random_slots(encoder.slots(), 17);
  ckks::Ciphertext ct = enc.encrypt(encoder.encode(msg, 5));
  // Chain: square via plain mult and rescale three times.
  std::vector<std::complex<double>> expect(msg);
  for (int round = 0; round < 3; ++round) {
    const auto mult = random_slots(encoder.slots(), 18 + round);
    const ckks::Plaintext factor = encoder.encode(mult, ct.limbs());
    ct = eval.mul_plain(ct, factor);
    eval.rescale_inplace(ct);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] *= mult[i];
  }
  const auto got = encoder.decode(dec.decrypt(ct));
  double max_err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - expect[i]));
  }
  EXPECT_LT(max_err, 0.05);
}

}  // namespace
}  // namespace abc
