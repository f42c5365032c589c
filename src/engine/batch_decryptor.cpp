#include "engine/batch_decryptor.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::engine {

BatchDecryptor::BatchDecryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                               const ckks::SecretKey& sk)
    : core_(ctx),
      encoder_(ctx),
      decryptor_(std::move(ctx), sk),
      scratch_(core_.ctx()) {}

std::vector<ckks::Plaintext> BatchDecryptor::decrypt_batch(
    std::span<const ckks::Ciphertext> cts) {
  // Plaintext is not default-constructible (RnsPoly carries its context),
  // so the parallel writes are staged through optionals.
  std::vector<std::optional<ckks::Plaintext>> staged(cts.size());
  core_.run(cts.size(), [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kDecryptItem);
    staged[i] = decryptor_.decrypt_with(cts[i], scratch_.at(worker));
  }).rethrow_first();
  std::vector<ckks::Plaintext> out;
  out.reserve(cts.size());
  for (auto& pt : staged) out.push_back(std::move(*pt));
  return out;
}

std::vector<std::vector<std::complex<double>>>
BatchDecryptor::decrypt_decode_batch(std::span<const ckks::Ciphertext> cts) {
  std::vector<std::vector<std::complex<double>>> out(cts.size());
  core_.run(cts.size(), [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kDecryptItem);
    out[i] =
        encoder_.decode(decryptor_.decrypt_with(cts[i], scratch_.at(worker)));
  }).rethrow_first();
  return out;
}

void BatchVerifyReport::fold() {
  ok = true;
  passed = 0;
  failed = 0;
  worst_abs_error = 0.0;
  worst_precision_bits = 60.0;
  for (const ckks::VerifyReport& item : items) {
    (item.ok ? passed : failed) += 1;
    ok = ok && item.ok;
    worst_abs_error = std::max(worst_abs_error, item.max_abs_error);
    worst_precision_bits = std::min(worst_precision_bits, item.precision_bits);
  }
}

BatchVerifyReport BatchDecryptor::verify_batch(
    std::span<const ckks::Ciphertext> cts,
    std::span<const std::vector<std::complex<double>>> expected,
    double bound) {
  BatchErrorReport errors;
  BatchVerifyReport report = verify_batch(cts, expected, errors, bound);
  errors.rethrow_first();
  return report;
}

BatchVerifyReport BatchDecryptor::verify_batch(
    std::span<const ckks::Ciphertext> cts,
    std::span<const std::vector<std::complex<double>>> expected,
    BatchErrorReport& errors, double bound) {
  ABC_CHECK_ARG(cts.size() == expected.size(),
                "one expected slot vector per ciphertext");
  BatchVerifyReport report;
  report.items.resize(cts.size());
  errors = core_.run(cts.size(), [&](std::size_t i, std::size_t worker) {
    ABC_FAILPOINT(fail::points::kVerifyItem);
    report.items[i] =
        ckks::verify_decode(core_.ctx(), cts[i], decryptor_, encoder_,
                            expected[i], bound, scratch_.at(worker));
  });
  // A slot whose verify threw keeps the default VerifyReport — ok=false —
  // so the fold counts it as failed without consulting the error report.
  report.fold();
  return report;
}

}  // namespace abc::engine
