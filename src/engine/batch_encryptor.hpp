#pragma once

/// @file batch_encryptor.hpp
/// Multi-threaded batch encryption engine: encodes and encrypts a batch of
/// messages across the execution backend's workers. This is the software
/// stand-in for the paper's client pipeline driven at throughput (Fig. 5b):
/// many independent encode+encrypt jobs, each one message.
///
/// Built on engine::FanOutCore, which owns the determinism machinery: the
/// engine reserves a contiguous block of PRNG stream ids up front and
/// assigns id base+i to batch item i, so the ciphertexts are bit-identical
/// for any backend and any worker count — a ScalarBackend run, a 1-thread
/// pool and an 8-thread pool all produce the same bytes. Ids come from the
/// context-wide counter, so engines sharing a context never alias.
///
/// Each worker owns an EncryptScratch, so after warm-up the per-message
/// hot path allocates only the ciphertext components it returns.

#include <complex>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "engine/fan_out_core.hpp"

namespace abc::engine {

class BatchEncryptor {
 public:
  /// Public-key mode.
  BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                 ckks::PublicKey pk);
  /// Symmetric seeded mode.
  BatchEncryptor(std::shared_ptr<const ckks::CkksContext> ctx,
                 const ckks::SecretKey& sk);

  ckks::EncryptMode mode() const noexcept { return encryptor_.mode(); }
  /// Lanes the underlying backend executes on (and scratch copies held).
  std::size_t workers() const noexcept { return core_.workers(); }

  /// The underlying encryptor: one-off encrypt() calls through it draw
  /// from the same context-wide stream-id counter as the batches, so
  /// mixing single and batched encryption never reuses a PRNG stream.
  ckks::Encryptor& encryptor() noexcept { return encryptor_; }

  /// Encodes messages[i] (complex slot values, up to ctx->slots() each)
  /// at @p limbs RNS limbs and encrypts them; ciphertexts come back in
  /// input order.
  std::vector<ckks::Ciphertext> encrypt_batch(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs);

  /// Convenience wrapper for real-valued messages.
  std::vector<ckks::Ciphertext> encrypt_real_batch(
      std::span<const std::vector<double>> messages, std::size_t limbs);

  /// Encrypts already-encoded plaintexts (encode elsewhere / reuse).
  std::vector<ckks::Ciphertext> encrypt_plaintexts(
      std::span<const ckks::Plaintext> plaintexts);

  /// Per-item-fault mode of encrypt_batch (the retry loop of
  /// ClientSession::round_trip_with_retry reads it): one bad message no
  /// longer aborts the batch. @p report records each item's outcome in
  /// input order, failed slots come back as default-constructed (empty)
  /// Ciphertexts, and successes are the exact bytes the throwing overload
  /// would have produced (stream ids are reserved identically whether or
  /// not neighbours fail). The throwing overload runs this body and then
  /// rethrows the lowest-index failure (BatchErrorReport::rethrow_first).
  std::vector<ckks::Ciphertext> encrypt_batch(
      std::span<const std::vector<std::complex<double>>> messages,
      std::size_t limbs, BatchErrorReport& report);

 private:
  /// The one fan-out every operation shares: out[i] = item(i, scratch, id)
  /// for each slot under a reserved stream-id block; returns the outcomes.
  BatchErrorReport run(
      std::span<ckks::Ciphertext> out,
      const std::function<ckks::Ciphertext(std::size_t index,
                                           ckks::EncryptScratch& scratch,
                                           u64 stream_id)>& item);

  FanOutCore core_;
  ckks::CkksEncoder encoder_;
  ckks::Encryptor encryptor_;
  ScratchPool<ckks::EncryptScratch> scratch_;  // one per backend worker
};

}  // namespace abc::engine
