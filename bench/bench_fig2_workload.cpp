// Reproduces Fig. 2: workload analysis of CKKS client-side operations at
// the bootstrappable parameter set (N = 2^16, 12 double-scaled levels =
// 24 limbs for encode+encrypt, 1 level = 2 limbs for decode+decrypt).
// Counts are measured by instrumented kernels, not estimated: one
// ClientSession per profile runs encrypt() at 24 limbs and decrypt_batch()
// of a fresh 2-limb ciphertext, each under an xf::OpCounterScope.
// Paper reference points: 27.0 MOPs encode+encrypt, 2.9 MOPs
// decode+decrypt (seed-compressed profile).

#include <complex>
#include <cstdio>
#include <random>
#include <vector>

#include "common/table.hpp"
#include "engine/client_session.hpp"
#include "transform/op_counter.hpp"

namespace {

using namespace abc;

void print_breakdown(const char* title, const xf::OpCounts& ops) {
  const double total = static_cast<double>(ops.total());
  TextTable table(title);
  table.set_header({"Operation class", "MOPs", "Share"});
  auto row = [&](const char* name, u64 count) {
    table.add_row({name, TextTable::fmt(count / 1e6, 2),
                   TextTable::fmt(100.0 * count / total, 1) + "%"});
  };
  row("I/NTT (modular butterflies)", ops.ntt_total());
  row("I/FFT (FP butterflies)", ops.fft_total());
  row("Poly mult/add (element-wise)", ops.poly_total());
  row("Others (RNS expand, CRT, sampling)", ops.other);
  table.add_row({"Total", TextTable::fmt(total / 1e6, 2), "100%"});
  table.print();
  std::puts("");
}

}  // namespace

int main() {
  std::puts("ABC-FHE reproduction :: Fig. 2 (client-side workload analysis)\n");
  std::puts("Parameters: N = 2^16, 24-limb fresh ciphertexts (double-scale),");
  std::puts("2-limb server-returned ciphertexts.\n");

  auto ctx = ckks::CkksContext::create(ckks::CkksParams::bootstrappable());
  std::vector<std::vector<std::complex<double>>> msgs(1);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t i = 0; i < ctx->slots(); ++i) {
    msgs[0].emplace_back(dist(rng), dist(rng));
  }

  for (auto [mode, name] :
       {std::pair{ckks::EncryptMode::kSymmetricSeeded,
                  "seed-compressed symmetric (1 NTT/limb, paper op budget)"},
        std::pair{ckks::EncryptMode::kPublicKey,
                  "public-key fresh (3 NTT/limb)"}}) {
    std::printf("--- Encryption profile: %s ---\n\n", name);
    engine::ClientSession session(ctx, {.mode = mode});
    const std::vector<ckks::Ciphertext> returned = session.encrypt(msgs, 2);
    xf::OpCounts enc_ops, dec_ops;
    {
      const xf::OpCounterScope scope;
      (void)session.encrypt(msgs, ctx->max_limbs());
      enc_ops = scope.delta();
    }
    {
      const xf::OpCounterScope scope;
      (void)session.decrypt_batch(returned);
      dec_ops = scope.delta();
    }

    print_breakdown("Encoding + Encrypt operation breakdown", enc_ops);
    print_breakdown("Decoding + Decrypt operation breakdown", dec_ops);

    const double enc_mops = enc_ops.total() / 1e6;
    const double dec_mops = dec_ops.total() / 1e6;
    std::printf(
        "Totals: encode+encrypt %.1f MOPs, decode+decrypt %.1f MOPs, "
        "imbalance %.1fx (paper: 27.0 / 2.9 MOPs, ~9.3x)\n\n",
        enc_mops, dec_mops, enc_mops / dec_mops);
  }
  return 0;
}
