// Encrypted inference round trip — the workload motivating the paper's
// Fig. 1, now end to end through the key-switching subsystem. The client
// encodes and encrypts a feature vector and generates the switching keys;
// the "server" evaluates a dense layer with a polynomial activation and a
// *real* slot reduction: relinearized ciphertext products and a
// rotate-and-sum tree that folds every slot into the logit, exactly the
// pattern BTS-class servers run.
//
//   client: encode + encrypt + keygen     (what ABC-FHE accelerates)
//   server: y = 0.5*(w.*x + b)^2          (CKKS-friendly activation)
//           relinearize(y*y is 3 comps)   (relin key)
//           logit = sum_slots(y)          (rotate-and-sum, Galois keys)
//   client: decrypt + decode + verify_decode
//
// Run: ./build/encrypted_inference

#include <cmath>
#include <complex>
#include <cstdio>
#include <random>
#include <vector>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/noise.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts(
      "== Encrypted inference (dense layer + square + rotate-and-sum) ==\n");

  // Depth-3 computation: weights multiply, activation square, reduction.
  ckks::CkksParams params = ckks::CkksParams::sweep_point(13, 6);
  auto ctx = ckks::CkksContext::create(params);
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor encryptor(ctx, keygen.public_key(sk));
  ckks::Decryptor decryptor(sk);
  ckks::Evaluator eval(ctx);

  // Client: feature vector packed one feature per slot, plus the key set
  // the server needs — relin + the log2(slots) power-of-two Galois keys of
  // the reduction tree.
  const std::size_t features = encoder.slots();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-0.5, 0.5);
  std::vector<std::complex<double>> x(features);
  std::vector<double> w(features), b(features);
  for (std::size_t i = 0; i < features; ++i) {
    x[i] = {dist(rng), 0.0};
    w[i] = dist(rng);
    b[i] = dist(rng);
  }

  std::printf("Client: encrypting %zu features at %zu limbs...\n", features,
              params.num_limbs);
  const ckks::Plaintext pt_x = encoder.encode(x, params.num_limbs);
  const ckks::Ciphertext ct_x = encryptor.encrypt(pt_x);

  std::vector<int> tree_steps;
  for (std::size_t s = 1; s < features; s <<= 1) {
    tree_steps.push_back(static_cast<int>(s));
  }
  std::printf("Client: generating relin + %zu Galois keys...\n",
              tree_steps.size());
  const ckks::RelinKey rlk = keygen.relin_key(sk);
  const ckks::GaloisKeys gks = keygen.galois_keys(sk, tree_steps);

  // Server (no secret key): y = 0.5 * (w .* x + b)^2, element-wise.
  // The 0.5 folds into the linear layer: 0.5*(wx+b)^2 = (w'x + b')^2 with
  // w' = w*sqrt(0.5), b' = b*sqrt(0.5) — one fewer multiplicative level.
  std::puts("Server: evaluating 0.5*(w.*x + b)^2 homomorphically...");
  const double root_half = std::sqrt(0.5);
  std::vector<double> w_scaled(features);
  for (std::size_t i = 0; i < features; ++i) w_scaled[i] = w[i] * root_half;
  const ckks::Plaintext pt_w = encoder.encode_real(w_scaled, ct_x.limbs());
  ckks::Ciphertext y = eval.mul_plain(ct_x, pt_w);
  eval.rescale_inplace(y);

  // Bias must match y's level and scale. Encoding happens at the context
  // scale Delta; declaring the plaintext at y.scale re-interprets the
  // stored integers, so pre-scale the values by y.scale/Delta to
  // compensate exactly.
  std::vector<std::complex<double>> b_adjusted(features);
  const double scale_ratio = y.scale / ctx->params().scale();
  for (std::size_t i = 0; i < features; ++i) {
    b_adjusted[i] = {b[i] * root_half * scale_ratio, 0.0};
  }
  ckks::Plaintext pt_b = encoder.encode(b_adjusted, y.limbs());
  pt_b.scale = y.scale;
  y = eval.add_plain(y, pt_b);

  ckks::Ciphertext act = eval.mul(y, y);  // 3 components, scale^2
  std::puts("Server: relinearizing the squared activation...");
  ckks::KeySwitchScratch scratch;
  eval.relinearize_inplace(act, rlk, &scratch);
  eval.rescale_inplace(act);

  // Rotate-and-sum: after log2(slots) doubling rotations every slot holds
  // sum_i y_i — the layer's logit.
  std::printf("Server: rotate-and-sum over %zu slots (%zu rotations)...\n",
              features, tree_steps.size());
  ckks::Ciphertext logit = act;
  for (const int step : tree_steps) {
    logit = eval.add(logit, eval.rotate(logit, step, gks, &scratch));
  }

  // Client: decrypt + decode + verify against the cleartext computation.
  std::puts("Client: decrypting + verifying the logit...");
  double expect = 0.0;
  for (std::size_t i = 0; i < features; ++i) {
    const double t = w[i] * x[i].real() + b[i];
    expect += 0.5 * t * t;
  }
  const std::vector<std::complex<double>> expect_slots(features,
                                                       {expect, 0.0});
  const ckks::VerifyReport report = ckks::verify_decode(
      *ctx, logit, decryptor, encoder, expect_slots, 0.05);
  std::printf(
      "\nLogit (all slots): expected %.6f, max |HE - cleartext| %.3g "
      "(%.1f bits) -> %s\n",
      expect, report.max_abs_error, report.precision_bits,
      report.ok ? "OK" : "FAILED");

  // The client-side cost is exactly what ABC-FHE accelerates.
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.log_n = params.log_n;
  cfg.fresh_limbs = params.num_limbs;
  cfg.returned_limbs = logit.limbs();
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  core::AbcFheSimulator sim(cfg);
  std::printf(
      "\nClient cost on ABC-FHE: encode+encrypt %.3f ms, decode+decrypt "
      "%.3f ms per inference\n",
      sim.encode_encrypt_ms(), sim.decode_decrypt_ms());
  return report.ok ? 0 : 1;
}
