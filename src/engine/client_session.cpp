#include "engine/client_session.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace abc::engine {

namespace {

BatchEncryptor make_encryptor(const std::shared_ptr<const ckks::CkksContext>& ctx,
                              const SessionConfig& config,
                              const ckks::SecretKey& sk,
                              const ckks::PublicKey& pk) {
  if (config.mode == ckks::EncryptMode::kPublicKey) {
    return BatchEncryptor(ctx, pk);
  }
  return BatchEncryptor(ctx, sk);
}

}  // namespace

ClientSession::ClientSession(std::shared_ptr<const ckks::CkksContext> ctx,
                             SessionConfig config)
    : ctx_(std::move(ctx)),
      config_(std::move(config)),
      keygen_(ctx_),
      sk_(keygen_.secret_key()),
      pk_(keygen_.public_key(sk_)),
      encryptor_(make_encryptor(ctx_, config_, sk_, pk_)),
      decryptor_(ctx_, sk_) {}

const KeyBundle& ClientSession::key_bundle() {
  if (!key_bundle_) {
    const ckks::RelinKey rlk = keygen_.relin_key(sk_);
    const ckks::GaloisKeys gks = keygen_.galois_keys(sk_, config_.rotations);
    KeyBundle bundle;
    bundle.public_key =
        serialize_public_key(ctx_, pk_, config_.bits_per_coeff);
    bundle.relin_key =
        serialize_key_switch_key(ctx_, rlk.key, config_.bits_per_coeff);
    bundle.galois_keys.reserve(gks.keys.size());
    for (const ckks::KeySwitchKey& gk : gks.keys) {
      bundle.galois_keys.push_back(
          serialize_key_switch_key(ctx_, gk, config_.bits_per_coeff));
    }
    key_bundle_ = std::move(bundle);
  }
  return *key_bundle_;
}

std::vector<ckks::Ciphertext> ClientSession::encrypt(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  return encryptor_.encrypt_batch(messages, limbs);
}

std::vector<ckks::Ciphertext> ClientSession::encrypt_real(
    std::span<const std::vector<double>> messages, std::size_t limbs) {
  return encryptor_.encrypt_real_batch(messages, limbs);
}

std::vector<u8> ClientSession::upload(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  return serialize_ciphertext_batch(encrypt(messages, limbs),
                                    config_.bits_per_coeff);
}

std::vector<std::vector<std::complex<double>>> ClientSession::decrypt_batch(
    std::span<const ckks::Ciphertext> cts) {
  return decryptor_.decrypt_decode_batch(cts);
}

BatchVerifyReport ClientSession::verify(
    std::span<const ckks::Ciphertext> cts,
    std::span<const std::vector<std::complex<double>>> expected,
    double bound) {
  return decryptor_.verify_batch(cts, expected, bound);
}

BatchVerifyReport ClientSession::verify_download(
    std::span<const u8> envelope,
    std::span<const std::vector<std::complex<double>>> expected,
    double bound) {
  const std::vector<ckks::Ciphertext> cts =
      deserialize_ciphertext_batch(ctx_, envelope);
  return verify(cts, expected, bound);
}

ClientSession::RetryReport ClientSession::round_trip_with_retry(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs, const Transport& transport, std::size_t max_attempts,
    double bound) {
  ABC_CHECK_ARG(transport != nullptr, "null transport");
  ABC_CHECK_ARG(max_attempts >= 1, "max_attempts must be at least 1");
  const std::size_t n = messages.size();
  RetryReport report;
  report.attempts.assign(n, 0);
  report.verify.items.resize(n);
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  while (!pending.empty()) {
    // An item only enters a round if it has attempts left; everyone in
    // `pending` here is being sent now.
    if (report.attempts[pending.front()] >= max_attempts) break;
    ++report.rounds;
    for (std::size_t i : pending) ++report.attempts[i];

    // Re-encrypt the pending subset. encrypt_batch reserves fresh stream
    // ids from the context-wide monotonic counter on every call, so a
    // retried item never reuses a stream — even for identical bytes.
    std::vector<std::vector<std::complex<double>>> round_msgs;
    round_msgs.reserve(pending.size());
    for (std::size_t i : pending) round_msgs.push_back(messages[i]);
    BatchErrorReport enc_errors;
    std::vector<ckks::Ciphertext> cts =
        encryptor_.encrypt_batch(round_msgs, limbs, enc_errors);

    // Only the items that encrypted ship; the rest stay pending.
    std::vector<std::size_t> sent;        // indices into `pending`
    std::vector<ckks::Ciphertext> wire;
    sent.reserve(pending.size());
    wire.reserve(pending.size());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (enc_errors.items[j].ok) {
        sent.push_back(j);
        wire.push_back(std::move(cts[j]));
      }
    }

    std::vector<std::size_t> next_pending;
    if (!sent.empty()) {
      bool round_ok = true;
      BatchVerifyReport round_verify;
      try {
        const std::vector<u8> response = transport(
            serialize_ciphertext_batch(wire, config_.bits_per_coeff));
        const std::vector<ckks::Ciphertext> returned =
            deserialize_ciphertext_batch(ctx_, response);
        ABC_CHECK_ARG(returned.size() == wire.size(),
                      "response item count does not match the upload");
        std::vector<std::vector<std::complex<double>>> expected;
        expected.reserve(sent.size());
        for (std::size_t j : sent) {
          expected.push_back(std::move(round_msgs[j]));
        }
        BatchErrorReport verify_errors;
        round_verify =
            decryptor_.verify_batch(returned, expected, verify_errors, bound);
      } catch (const std::exception& e) {
        // Whole-round failure (transport, envelope parse, count mismatch):
        // every item sent this round stays pending.
        round_ok = false;
        report.round_errors.emplace_back(e.what());
      }
      for (std::size_t k = 0; k < sent.size(); ++k) {
        const std::size_t i = pending[sent[k]];
        if (round_ok && round_verify.items[k].ok) {
          report.verify.items[i] = round_verify.items[k];
        } else {
          if (round_ok) report.verify.items[i] = round_verify.items[k];
          next_pending.push_back(i);
        }
      }
    }
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (!enc_errors.items[j].ok) next_pending.push_back(pending[j]);
    }
    // Keep input order so the next round's stream assignment (and the
    // report) stays schedule-independent.
    std::sort(next_pending.begin(), next_pending.end());
    pending = std::move(next_pending);
  }

  report.verify.fold();  // the same fold verify_batch uses
  report.ok = pending.empty() && report.verify.ok;
  return report;
}

}  // namespace abc::engine
