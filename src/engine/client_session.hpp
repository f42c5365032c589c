#pragma once

/// @file client_session.hpp
/// Pipeline facade over the full client round trip — the client half of
/// the ROADMAP's persistent-server story. One ClientSession owns a warm
/// context plus its encoder, encryptor and decryptor and walks the
/// paper's session lifecycle as method calls:
///
///   1. keygen           — secret (and public-key mode's public) key in
///                         the constructor; relin + Galois switching
///                         keys on first key_bundle()
///   2. key upload       — key_bundle(): seed-compressed wire blobs (the
///                         b halves + stream ids a server needs)
///   3. encrypt batch    — encrypt(), or upload() straight to an "ABCB"
///                         ciphertext-batch envelope
///   4. decrypt/verify   — decrypt_batch()/verify(), or verify_download()
///                         straight from a returned envelope
///
/// Context, encoder, encryptor and decryptor are built once and reused
/// across requests, so a long-lived client amortizes every setup cost.
/// The session, encryptor and decryptor share one secret polynomial;
/// symmetric mode keeps no public key (key_bundle() builds and drops it).
/// Every batch is one in-order loop over its items on the calling thread
/// (engine/item_loop.hpp); each item's limbs fan out through the context
/// backend. Batches and keys are bit-identical at any worker count, a
/// batch's ciphertexts take one block of ids from the context-wide
/// stream-id counter, and the switching keys count from 0 in the
/// session's own KeyGenerator, salted by the session's secret id.

#include <complex>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/noise.hpp"
#include "ckks/serialize.hpp"
#include "engine/item_loop.hpp"

namespace abc::engine {

struct SessionConfig {
  /// Rotation steps whose Galois keys the key bundle ships (rotate-and-sum
  /// workloads want powers of two up to slots/2).
  std::vector<int> rotations;
  /// Packed residue width of every wire format the session emits.
  int bits_per_coeff = 44;
  /// Encryption mode for the upload path. Symmetric seeded is the paper's
  /// client profile (1 NTT pass per limb, c1 compressed to a stream id).
  ckks::EncryptMode mode = ckks::EncryptMode::kSymmetricSeeded;
};

/// Per-batch fold of ckks::VerifyReport: one entry per ciphertext in input
/// order, plus the batch aggregates a serving client actually gates on.
struct BatchVerifyReport {
  bool ok = false;                  // every item passed its bound
  std::size_t passed = 0;
  std::size_t failed = 0;
  double worst_abs_error = 0.0;       // max over items
  double worst_precision_bits = 60.0; // min over items; 60 = "no error
                                      // observed", matching VerifyReport
  std::vector<ckks::VerifyReport> items;

  /// Recomputes the aggregates from items, in input order.
  void fold();
};

/// The serialized key set a client uploads once per session, every blob
/// seed-compressed (only what the server cannot regenerate ships).
struct KeyBundle {
  std::vector<u8> public_key;
  std::vector<u8> relin_key;
  std::vector<std::vector<u8>> galois_keys;  // SessionConfig::rotations order

  std::size_t total_bytes() const noexcept {
    std::size_t total = public_key.size() + relin_key.size();
    for (const auto& gk : galois_keys) total += gk.size();
    return total;
  }
};

class ClientSession {
 public:
  explicit ClientSession(std::shared_ptr<const ckks::CkksContext> ctx,
                         SessionConfig config = {});

  const ckks::CkksContext& context() const noexcept { return *ctx_; }
  const SessionConfig& config() const noexcept { return config_; }
  const ckks::SecretKey& secret_key() const noexcept { return sk_; }

  /// The session's encryptor and decryptor, for callers composing their
  /// own pipelines (Encryptor::encrypt_plaintexts draws from the same
  /// context-wide stream-id counter as encrypt()).
  ckks::Encryptor& encrypt_engine() noexcept { return encryptor_; }
  ckks::Decryptor& decrypt_engine() noexcept { return decryptor_; }

  /// Seed-compressed key upload blobs. The switching keys are generated
  /// (across the pool) and serialized on first call, then cached — a
  /// session uploads its keys once and encrypts forever after.
  const KeyBundle& key_bundle();

  // -- request path ---------------------------------------------------------

  /// Encode+encrypt a batch at @p limbs RNS limbs; ciphertext i takes id
  /// base + i of one reserved stream-id block. Every item runs; with
  /// several failures the lowest index's exception is rethrown.
  std::vector<ckks::Ciphertext> encrypt(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs);
  /// Report mode of encrypt (round_trip_with_retry reads it): one bad
  /// message does not abort the batch. @p report records each item's
  /// outcome in input order, failed slots come back as default-constructed
  /// (empty) Ciphertexts, and successes are the exact bytes the throwing
  /// overload would have produced (the id block is reserved identically).
  std::vector<ckks::Ciphertext> encrypt(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs, BatchErrorReport& report);

  /// encrypt() + ciphertext-batch envelope: the bytes one request uploads.
  std::vector<u8> upload(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs);

  // -- response path --------------------------------------------------------

  /// Decrypt+decode a returned batch to slot values, input order. A
  /// malformed item throws InvalidArgument; with several, the lowest
  /// index's exception is rethrown.
  std::vector<std::vector<std::complex<double>>> decrypt_batch(
      std::span<const ckks::Ciphertext> cts);

  /// Batched ckks::verify_decode: checks cts[i] against expected[i] within
  /// @p bound (absolute, slot domain; non-positive selects each item's
  /// default single-hop bound) and folds the per-item reports.
  BatchVerifyReport verify(
      std::span<const ckks::Ciphertext> cts,
      std::span<const std::vector<std::complex<double>>> expected,
      double bound = 0.0);
  /// Report mode of verify (round_trip_with_retry reads it): an item whose
  /// verify throws does not abort the batch. @p errors records each
  /// item's outcome in input order, and a failed item keeps the default
  /// (failing) VerifyReport.
  BatchVerifyReport verify(
      std::span<const ckks::Ciphertext> cts,
      std::span<const std::vector<std::complex<double>>> expected,
      BatchErrorReport& errors, double bound = 0.0);

  /// Parse a returned "ABCB" envelope and verify every ciphertext in it —
  /// the full download path as one call.
  BatchVerifyReport verify_download(
      std::span<const u8> envelope,
      std::span<const std::vector<std::complex<double>>> expected,
      double bound = 0.0);

  // -- retrying round trip ---------------------------------------------------

  /// Carries one request's upload envelope to the server and returns the
  /// response envelope (identity for a loopback/echo deployment).
  using Transport =
      std::function<std::vector<u8>(std::span<const u8> upload)>;

  /// Outcome of round_trip_with_retry: per-item verify results plus how
  /// many times each item had to be sent before it passed.
  struct RetryReport {
    bool ok = false;            // every item verified within max_attempts
    std::size_t rounds = 0;     // transport round trips performed
    std::vector<std::size_t> attempts;  // input order; times item was sent
    BatchVerifyReport verify;   // final per-item reports, input order; an
                                // item that never verified keeps the
                                // default (failing) VerifyReport
    std::vector<std::string> round_errors;  // whole-round failures
                                            // (transport/parse), in round
                                            // order; empty entries elided
  };

  /// Full round trip with bounded retry: encrypts @p messages, ships them
  /// through @p transport, verifies the response against the same
  /// messages, and re-sends only the failed items — each retry
  /// re-encrypts under *freshly reserved* stream ids (the context-wide
  /// counter is monotonic, so a stream id is never reused, even for the
  /// same message). Gives up after @p max_attempts sends per item. Faults
  /// anywhere in the leg — encrypt, transport, parse, decrypt, verify —
  /// fail the affected items' round, never the call.
  RetryReport round_trip_with_retry(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs, const Transport& transport,
      std::size_t max_attempts = 3, double bound = 0.0);

 private:
  std::shared_ptr<const ckks::CkksContext> ctx_;
  SessionConfig config_;
  ckks::KeyGenerator keygen_;  // sk, pk and the switching keys
  ckks::SecretKey sk_;
  ckks::CkksEncoder encoder_;
  ckks::Encryptor encryptor_;
  ckks::Decryptor decryptor_;
  std::optional<KeyBundle> key_bundle_;  // built on first key_bundle()
};

}  // namespace abc::engine
