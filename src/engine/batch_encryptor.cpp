#include "engine/batch_encryptor.hpp"

#include "common/failpoint.hpp"

namespace abc::engine {

BatchEncryptor::BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                               ckks::PublicKey pk)
    : core_(ctx),
      encoder_(ctx),
      encryptor_(std::move(ctx), std::move(pk)),
      scratch_(core_.ctx()) {}

BatchEncryptor::BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                               const ckks::SecretKey& sk)
    : core_(ctx),
      encoder_(ctx),
      encryptor_(std::move(ctx), sk),
      scratch_(core_.ctx()) {}

BatchErrorReport BatchEncryptor::run(
    std::span<ckks::Ciphertext> out,
    const std::function<ckks::Ciphertext(std::size_t, ckks::EncryptScratch&,
                                         u64)>& item) {
  // A failed item leaves its slot as the default-constructed Ciphertext it
  // started as — never a torn write, since item() builds the ciphertext in
  // scratch-local storage and only a completed result is move-assigned in.
  return core_.run_with_ids(
      out.size(), [&](std::size_t i, std::size_t worker, u64 id) {
        ABC_FAILPOINT(fail::points::kEncryptItem);
        out[i] = item(i, scratch_.at(worker), id);
      });
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_batch(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  BatchErrorReport report;
  std::vector<ckks::Ciphertext> out = encrypt_batch(messages, limbs, report);
  report.rethrow_first();
  return out;
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_batch(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs, BatchErrorReport& report) {
  std::vector<ckks::Ciphertext> out(messages.size());
  report = run(out, [&](std::size_t i, ckks::EncryptScratch& scratch,
                        u64 id) {
    const ckks::Plaintext pt = encoder_.encode(messages[i], limbs);
    return encryptor_.encrypt_with(pt, id, scratch);
  });
  return out;
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_real_batch(
    std::span<const std::vector<double>> messages, std::size_t limbs) {
  std::vector<ckks::Ciphertext> out(messages.size());
  run(out, [&](std::size_t i, ckks::EncryptScratch& scratch, u64 id) {
    const ckks::Plaintext pt = encoder_.encode_real(messages[i], limbs);
    return encryptor_.encrypt_with(pt, id, scratch);
  }).rethrow_first();
  return out;
}

std::vector<ckks::Ciphertext> BatchEncryptor::encrypt_plaintexts(
    std::span<const ckks::Plaintext> plaintexts) {
  std::vector<ckks::Ciphertext> out(plaintexts.size());
  run(out, [&](std::size_t i, ckks::EncryptScratch& scratch, u64 id) {
    return encryptor_.encrypt_with(plaintexts[i], id, scratch);
  }).rethrow_first();
  return out;
}

}  // namespace abc::engine
