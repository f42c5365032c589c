#include "engine/client_session.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::engine {

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

ClientSession::ClientSession(std::shared_ptr<const ckks::CkksContext> ctx,
                             SessionConfig config)
    : ctx_(std::move(ctx)),
      config_(std::move(config)),
      keygen_(ctx_),
      sk_(keygen_.secret_key()),
      encoder_(ctx_),
      encryptor_(config_.mode == ckks::EncryptMode::kPublicKey
                     ? ckks::Encryptor(ctx_, keygen_.public_key(sk_))
                     : ckks::Encryptor(ctx_, sk_)),
      decryptor_(sk_) {}

const KeyBundle& ClientSession::key_bundle() {
  if (!key_bundle_) {
    KeyBundle bundle;
    // Symmetric mode keeps no public key: the generator's first one has
    // the same bytes whenever it is built, and is dropped once serialized.
    const int bits = config_.bits_per_coeff;
    const ckks::PublicKey* pk = encryptor_.public_key();
    bundle.public_key =
        pk ? serialize_public_key(ctx_, *pk, bits)
           : serialize_public_key(ctx_, keygen_.public_key(sk_), bits);
    const ckks::RelinKey rlk = keygen_.relin_key(sk_);
    const ckks::GaloisKeys gks = keygen_.galois_keys(sk_, config_.rotations);
    bundle.relin_key = serialize_key_switch_key(ctx_, rlk.key, bits);
    bundle.galois_keys.reserve(gks.keys.size());
    for (const ckks::KeySwitchKey& gk : gks.keys) {
      bundle.galois_keys.push_back(serialize_key_switch_key(ctx_, gk, bits));
    }
    key_bundle_ = std::move(bundle);
  }
  return *key_bundle_;
}

std::vector<ckks::Ciphertext> ClientSession::encrypt(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  BatchErrorReport report;
  std::vector<ckks::Ciphertext> out = encrypt(messages, limbs, report);
  report.rethrow_first();
  return out;
}

std::vector<ckks::Ciphertext> ClientSession::encrypt(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs, BatchErrorReport& report) {
  // The block is reserved before any item runs, so item i gets id
  // base + i whether or not its neighbours fail; a failed item leaves its
  // slot the empty Ciphertext it started as.
  std::vector<ckks::Ciphertext> out(messages.size());
  const u64 base = ctx_->reserve_stream_ids(out.size());
  report = run_items(out.size(), fail::points::kEncryptItem,
                     [&](std::size_t i) {
                       out[i] = encryptor_.encrypt(
                           encoder_.encode(messages[i], limbs), base + i);
                     });
  return out;
}

std::vector<u8> ClientSession::upload(
    std::span<const std::vector<std::complex<double>>> messages,
    std::size_t limbs) {
  return serialize_ciphertext_batch(encrypt(messages, limbs),
                                    config_.bits_per_coeff);
}

std::vector<std::vector<std::complex<double>>> ClientSession::decrypt_batch(
    std::span<const ckks::Ciphertext> cts) {
  std::vector<std::vector<std::complex<double>>> out(cts.size());
  run_items(cts.size(), fail::points::kDecryptItem, [&](std::size_t i) {
    out[i] = encoder_.decode(decryptor_.decrypt(cts[i]));
  }).rethrow_first();
  return out;
}

BatchVerifyReport ClientSession::verify(
    std::span<const ckks::Ciphertext> cts,
    std::span<const std::vector<std::complex<double>>> expected,
    double bound) {
  BatchErrorReport errors;
  BatchVerifyReport report = verify(cts, expected, errors, bound);
  errors.rethrow_first();
  return report;
}

BatchVerifyReport ClientSession::verify(
    std::span<const ckks::Ciphertext> cts,
    std::span<const std::vector<std::complex<double>>> expected,
    BatchErrorReport& errors, double bound) {
  ABC_CHECK_ARG(cts.size() == expected.size(),
                "one expected slot vector per ciphertext");
  BatchVerifyReport report;
  report.items.resize(cts.size());
  errors = run_items(cts.size(), fail::points::kVerifyItem, [&](std::size_t i) {
    report.items[i] = ckks::verify_decode(*ctx_, cts[i], decryptor_, encoder_,
                                          expected[i], bound);
  });
  // A slot whose verify threw keeps the default VerifyReport — ok=false —
  // so the fold counts it as failed without consulting the error report.
  report.fold();
  return report;
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

    // Re-encrypt the pending subset. encrypt() reserves fresh stream ids
    // from the context-wide monotonic counter on every call, so a retried
    // item never reuses a stream — even for identical bytes.
    std::vector<std::vector<std::complex<double>>> round_msgs;
    round_msgs.reserve(pending.size());
    for (std::size_t i : pending) round_msgs.push_back(messages[i]);
    BatchErrorReport enc_errors;
    std::vector<ckks::Ciphertext> cts =
        encrypt(round_msgs, limbs, enc_errors);

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
        round_verify = verify(returned, expected, verify_errors, bound);
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

  report.verify.fold();  // the same fold verify() uses
  report.ok = pending.empty() && report.verify.ok;
  return report;
}

}  // namespace abc::engine
