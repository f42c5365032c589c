// Quickstart: the full CKKS client round trip at bootstrappable
// parameters — encode, encrypt, decrypt, decode — plus what the ABC-FHE
// accelerator would take for the same jobs.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart

#include <complex>
#include <cstdio>
#include <vector>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "core/simulator.hpp"

int main() {
  using namespace abc;
  std::puts("== ABC-FHE quickstart ==\n");

  // 1. Parameters: N = 2^14 keeps this demo snappy; swap in
  //    CkksParams::bootstrappable() for the paper's full N = 2^16 set.
  ckks::CkksParams params = ckks::CkksParams::sweep_point(14, 8);
  params.validate();
  auto ctx = ckks::CkksContext::create(params);
  std::printf("Parameters: N = 2^%d, %zu limbs of %d bits, scale 2^%d\n",
              params.log_n, params.num_limbs, params.prime_bits,
              params.scale_bits);

  // 2. Keys (all randomness derives from the 128-bit context seed).
  ckks::KeyGenerator keygen(ctx);
  const ckks::SecretKey sk = keygen.secret_key();
  ckks::Encryptor encryptor(ctx, keygen.public_key(sk));
  ckks::Decryptor decryptor(sk);
  ckks::CkksEncoder encoder(ctx);

  // 3. A message: N/2 complex slots.
  std::vector<std::complex<double>> message(encoder.slots());
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = {std::sin(0.001 * static_cast<double>(i)),
                  std::cos(0.003 * static_cast<double>(i))};
  }

  // 4. Encode -> encrypt -> decrypt -> decode.
  const ckks::Plaintext pt = encoder.encode(message, params.num_limbs);
  const ckks::Ciphertext ct = encryptor.encrypt(pt);
  const ckks::Plaintext decrypted = decryptor.decrypt(ct);
  const auto decoded = encoder.decode(decrypted);

  const ckks::PrecisionReport report = ckks::compare_slots(message, decoded);
  std::printf("\nRound trip over %zu slots: max error %.3g (%.1f bits of "
              "precision)\n",
              message.size(), report.max_abs_error, report.precision_bits);

  // 5. What would ABC-FHE take for this?
  core::ArchConfig cfg = core::ArchConfig::paper_default();
  cfg.log_n = params.log_n;
  cfg.fresh_limbs = params.num_limbs;
  cfg.enc_profile = core::EncryptProfile::kPublicKey;
  core::AbcFheSimulator sim(cfg);
  std::printf("\nABC-FHE accelerator (600 MHz, LPDDR5): encode+encrypt "
              "%.3f ms, decode+decrypt %.3f ms\n",
              sim.encode_encrypt_ms(), sim.decode_decrypt_ms());
  std::puts("\nDone.");
  return 0;
}
