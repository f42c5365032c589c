// Batch client: the full client round trip behind the ROADMAP north star,
// driven through the engine::ClientSession pipeline facade. One session
// object owns the warm context, encoder, encryptor and decryptor and walks
// the paper's client lifecycle end to end:
//
//   1. keygen + seed-compressed key bundle (what a server receives once)
//   2. batch encode+encrypt -> "ABCB" ciphertext-batch upload envelope
//   3. (the server round trip -- echoed here)
//   4. batch decode+decrypt + verify_decode on the returned envelope
//
// Uses the symmetric seeded mode (1 NTT pass per limb, seed-compressed c1,
// the paper's 27.0 MOPs profile) and the ThreadPoolBackend so each
// ciphertext's limbs spread across all cores. Exits nonzero if any slot misses its
// precision bound — the same check CI's example smoke gates on.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/batch_client

#include <chrono>
#include <complex>
#include <cstdio>
#include <random>
#include <vector>

#include "backend/thread_pool_backend.hpp"
#include "engine/client_session.hpp"

int main() {
  using namespace abc;
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  std::puts("== ABC-FHE batch client (full round-trip session) ==\n");

  // 1. Moderate parameters keep the demo snappy; swap in
  //    CkksParams::bootstrappable() for the paper's N = 2^16 set.
  ckks::CkksParams params = ckks::CkksParams::sweep_point(13, 8);
  params.validate();
  auto pool = std::make_shared<backend::ThreadPoolBackend>();
  auto ctx = ckks::CkksContext::create(params, pool);
  std::printf("Parameters: N = 2^%d, %zu limbs; backend '%s' with %zu "
              "workers\n\n",
              params.log_n, params.num_limbs, ctx->backend().name(),
              ctx->backend().workers());

  // 2. Session setup: keys in the constructor, switching-key bundle on
  //    first use — both costs paid once for the session's lifetime.
  engine::SessionConfig cfg;
  cfg.rotations = {1, 2, 4, 8};
  auto t0 = Clock::now();
  engine::ClientSession session(ctx, cfg);
  const double keygen_ms = ms_since(t0);
  t0 = Clock::now();
  const engine::KeyBundle& keys = session.key_bundle();
  std::printf("Session sk/pk in %.1f ms; switching keys generated + "
              "serialized in %.1f ms — seed-compressed key upload "
              "(pk + relin + %zu Galois) = %.2f MB\n\n",
              keygen_ms, ms_since(t0), keys.galois_keys.size(),
              static_cast<double>(keys.total_bytes()) / 1e6);

  // 3. A batch of telemetry vectors, one message per "sensor".
  const std::size_t batch = 24;
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<std::complex<double>>> readings(batch);
  for (auto& r : readings) {
    r.resize(ctx->slots());
    for (auto& x : r) x = {dist(rng), 0.0};
  }

  // 4. Upload path: encode + encrypt the whole batch across the pool and
  //    pack it into one ciphertext-batch envelope.
  t0 = Clock::now();
  const std::vector<u8> envelope =
      session.upload(readings, params.num_limbs);
  const double up_ms = ms_since(t0);
  std::printf("Encrypted + packed %zu messages in %.1f ms (%.1f msgs/s), "
              "upload %.2f MB (c1 seed-compressed to 8 bytes/ct)\n",
              batch, up_ms, 1e3 * static_cast<double>(batch) / up_ms,
              static_cast<double>(envelope.size()) / 1e6);

  // 5. The server would evaluate and return an envelope of the same shape;
  //    this demo round-trips the upload itself, so the expected slot
  //    values are the original readings.
  const std::vector<u8>& returned = envelope;

  // 6. Download path: parse + batched decode/decrypt + per-slot precision
  //    verification, all in one call on the warm session.
  t0 = Clock::now();
  const engine::BatchVerifyReport report =
      session.verify_download(returned, readings);
  const double down_ms = ms_since(t0);
  std::printf("Decrypted + verified %zu ciphertexts in %.1f ms "
              "(%.1f msgs/s)\n\n",
              batch, down_ms, 1e3 * static_cast<double>(batch) / down_ms);

  std::printf("Verify report: %zu/%zu slot vectors within bound, worst "
              "error %.3g (%.1f bits)\n",
              report.passed, report.passed + report.failed,
              report.worst_abs_error, report.worst_precision_bits);
  std::printf("\n%s\n", report.ok ? "Full round-trip session OK."
                                  : "PRECISION LOSS — investigate!");
  return report.ok ? 0 : 1;
}
