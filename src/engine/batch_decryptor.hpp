#pragma once

/// @file batch_decryptor.hpp
/// Multi-threaded batch decryption engine: the missing third engine of the
/// client round trip. Decodes+decrypts (or decrypt-and-verifies) a batch
/// of server-returned ciphertexts across the execution backend's workers,
/// mirroring BatchEncryptor on the download side of the paper's client
/// workload (Fig. 2a "Decoding + Decrypt").
///
/// Built on engine::FanOutCore. Decryption consumes no PRNG stream, so
/// determinism is purely the partitioning contract: per-item work is
/// independent, results land in input order, and the output is
/// bit-identical for any backend and any worker count.
///
/// Each worker owns a DecryptScratch, so after warm-up the per-ciphertext
/// hot path allocates only the plaintext (or decoded slots) it returns.

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/noise.hpp"
#include "engine/fan_out_core.hpp"

namespace abc::engine {

/// Per-batch fold of ckks::VerifyReport (the PR 4 single-ciphertext
/// verifier): one entry per ciphertext in input order, plus the batch
/// aggregates a serving client actually gates on.
struct BatchVerifyReport {
  bool ok = false;                  // every item passed its bound
  std::size_t passed = 0;
  std::size_t failed = 0;
  double worst_abs_error = 0.0;       // max over items
  double worst_precision_bits = 60.0; // min over items; 60 = "no error
                                      // observed", matching VerifyReport
  std::vector<ckks::VerifyReport> items;

  /// Recomputes the aggregates from items: a serial fold after the
  /// fan-out, so aggregation order never depends on worker scheduling.
  void fold();
};

class BatchDecryptor {
 public:
  BatchDecryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                 const ckks::SecretKey& sk);

  /// Lanes the underlying backend executes on (and scratch copies held).
  std::size_t workers() const noexcept { return core_.workers(); }

  /// The underlying decryptor, for one-off decrypt() calls.
  ckks::Decryptor& decryptor() noexcept { return decryptor_; }

  /// Decrypts cts[i] to a coefficient-domain plaintext; results come back
  /// in input order. Accepts 2- and 3-component ciphertexts at any level;
  /// a malformed item (component count, mismatched levels) throws
  /// InvalidArgument on the calling thread, exactly as it would serially.
  /// Every item runs; with several failures the lowest index's exception
  /// is rethrown (BatchErrorReport::rethrow_first), at any worker count.
  std::vector<ckks::Plaintext> decrypt_batch(
      std::span<const ckks::Ciphertext> cts);

  /// Decrypts and decodes to slot values (the full "Decoding + Decrypt"
  /// stage): one slot vector per ciphertext, input order.
  std::vector<std::vector<std::complex<double>>> decrypt_decode_batch(
      std::span<const ckks::Ciphertext> cts);

  /// Batched verify_decode: checks cts[i] against expected[i] within
  /// @p bound (absolute, slot domain; non-positive selects each item's
  /// default single-hop bound — see ckks::verify_decode) and folds the
  /// per-item reports into a BatchVerifyReport.
  BatchVerifyReport verify_batch(
      std::span<const ckks::Ciphertext> cts,
      std::span<const std::vector<std::complex<double>>> expected,
      double bound = 0.0);

  /// Per-item-fault mode of verify_batch (the retry loop of
  /// ClientSession::round_trip_with_retry reads it): an item whose verify
  /// throws no longer aborts the batch. @p report records each item's
  /// outcome in input order, and a failed item keeps the default (failing)
  /// VerifyReport. The throwing overload runs this body and then rethrows
  /// the lowest-index failure (BatchErrorReport::rethrow_first).
  BatchVerifyReport verify_batch(
      std::span<const ckks::Ciphertext> cts,
      std::span<const std::vector<std::complex<double>>> expected,
      BatchErrorReport& report, double bound = 0.0);

 private:
  FanOutCore core_;
  ckks::CkksEncoder encoder_;
  ckks::Decryptor decryptor_;
  ScratchPool<ckks::DecryptScratch> scratch_;  // one per backend worker
};

}  // namespace abc::engine
