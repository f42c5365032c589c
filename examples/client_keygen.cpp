// Client keygen session: the paper's full client-side scenario end to end.
// A device holding only the 128-bit seed (1) generates its secret/public
// keys plus the switching-key material a server needs for bootstrappable
// parameters (relinearization + Galois keys), (2) serializes the keys
// seed-compressed — only the b halves and PRNG stream ids ship, (3)
// batch-encrypts a round of telemetry, and (4) serializes the ciphertexts
// for upload. Key digits and ciphertext limbs fan out across the
// thread-pool backend, and everything is bit-identical to a
// single-threaded run.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/client_keygen

#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "backend/thread_pool_backend.hpp"
#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/serialize.hpp"

int main() {
  using namespace abc;
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  std::puts("== ABC-FHE client keygen session ==\n");

  // Moderate parameters keep the demo snappy; swap in
  // CkksParams::bootstrappable() for the paper's N = 2^16 / 24-limb set.
  ckks::CkksParams params = ckks::CkksParams::sweep_point(12, 6);
  params.validate();
  auto pool = std::make_shared<backend::ThreadPoolBackend>();
  auto ctx = ckks::CkksContext::create(params, pool);
  std::printf("Parameters: N = 2^%d, %zu limbs; backend '%s' with %zu "
              "workers\n\n",
              params.log_n, params.num_limbs, ctx->backend().name(),
              ctx->backend().workers());

  // 1. On-device key generation: secret + public serially, switching-key
  //    digits fanned across the pool by the same generator.
  const std::vector<int> rotations = {1, 2, 4, 8};
  auto t0 = Clock::now();
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  const ckks::PublicKey pk = keygen.public_key(sk);
  const ckks::RelinKey rlk = keygen.relin_key(sk);
  const ckks::GaloisKeys gks = keygen.galois_keys(sk, rotations);
  std::printf("Generated sk, pk, relin (%zu digits) and %zu Galois keys "
              "in %.1f ms\n",
              rlk.key.digits(), gks.keys.size(), ms_since(t0));

  // 2. Serialize the key set seed-compressed: the server receives only b
  //    halves + stream ids and regenerates every uniform half itself.
  t0 = Clock::now();
  std::size_t compressed = 0, full = 0;
  std::vector<std::vector<u8>> key_blobs;
  key_blobs.push_back(serialize_public_key(ctx, pk));
  key_blobs.push_back(serialize_key_switch_key(ctx, rlk.key));
  for (const auto& gk : gks.keys) {
    key_blobs.push_back(serialize_key_switch_key(ctx, gk));
  }
  for (const auto& blob : key_blobs) compressed += blob.size();
  full += public_key_sizes(pk).full_bytes;
  full += key_switch_key_sizes(rlk.key).full_bytes;
  for (const auto& gk : gks.keys) full += key_switch_key_sizes(gk).full_bytes;
  std::printf("Key upload: %.2f MB seed-compressed vs %.2f MB full "
              "(%.2fx saved) in %.1f ms\n",
              static_cast<double>(compressed) / 1e6,
              static_cast<double>(full) / 1e6,
              static_cast<double>(full) / static_cast<double>(compressed),
              ms_since(t0));

  // Sanity: the compressed relin key round-trips bit-exactly.
  const ckks::KeySwitchKey rlk_restored =
      deserialize_key_switch_key(ctx, key_blobs[1]);
  for (std::size_t d = 0; d < rlk.key.digits(); ++d) {
    for (std::size_t l = 0; l < rlk.key.b[d].limbs(); ++l) {
      const auto want_b = rlk.key.b[d].limb(l);
      const auto got_b = rlk_restored.b[d].limb(l);
      const auto want_a = rlk.key.a[d].limb(l);
      const auto got_a = rlk_restored.a[d].limb(l);
      for (std::size_t j = 0; j < want_b.size(); ++j) {
        if (want_b[j] != got_b[j] || want_a[j] != got_a[j]) {
          std::puts("KEY ROUND-TRIP MISMATCH — investigate!");
          return 1;
        }
      }
    }
  }
  std::puts("Relin key round-trips bit-exactly through compression.\n");

  // 3. Batch-encrypt a round of telemetry (symmetric seeded: one NTT pass
  //    per limb, c1 seed-compressed).
  const std::size_t batch = 16;
  std::mt19937_64 rng(2718);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<double>> readings(batch);
  for (auto& r : readings) {
    r.resize(ctx->slots());
    for (double& x : r) x = dist(rng);
  }
  t0 = Clock::now();
  ckks::CkksEncoder encoder(ctx);
  std::vector<ckks::Plaintext> pts;
  pts.reserve(batch);
  for (const auto& r : readings) {
    pts.push_back(encoder.encode_real(r, params.num_limbs));
  }
  ckks::Encryptor encryptor(ctx, sk);
  const auto cts = encryptor.encrypt_plaintexts(pts);
  std::printf("Encrypted %zu messages in %.1f ms\n", batch, ms_since(t0));

  // 4. Serialize the ciphertexts for upload.
  t0 = Clock::now();
  std::size_t ct_bytes = 0;
  for (const auto& ct : cts) ct_bytes += serialize_ciphertext(ct).size();
  std::printf("Ciphertext upload: %.2f MB (%.1f ms; c1 compressed to its "
              "stream id)\n\n",
              static_cast<double>(ct_bytes) / 1e6, ms_since(t0));

  // Spot-check the round trip before declaring the session healthy.
  ckks::Decryptor dec(ctx, sk);
  double worst_bits = 1e300;
  for (std::size_t i : {std::size_t{0}, batch - 1}) {
    const auto decoded = encoder.decode(dec.decrypt(cts[i]));
    std::vector<std::complex<double>> want(readings[i].size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      want[j] = {readings[i][j], 0.0};
    }
    worst_bits =
        std::min(worst_bits, ckks::compare_slots(want, decoded).precision_bits);
  }
  std::printf("Worst spot-check precision: %.1f bits\n", worst_bits);
  std::printf("%s\n", worst_bits > 10.0 ? "Client session OK."
                                        : "PRECISION LOSS — investigate!");
  return worst_bits > 10.0 ? 0 : 1;
}
