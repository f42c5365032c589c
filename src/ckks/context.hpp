#pragma once

/// @file context.hpp
/// Immutable CKKS context: validated parameters, the RNS prime chain
/// (hardware-friendly primes from the paper's selection methodology), NTT
/// tables per limb, and the canonical-embedding DWT plan. The NTT tables
/// and the DWT plan are the process-wide shared ones, so contexts over the
/// same parameters hold one copy between them.

#include <atomic>
#include <memory>
#include <vector>

#include "ckks/params.hpp"
#include "poly/rns_poly.hpp"
#include "transform/dwt.hpp"

namespace abc::ckks {

class CkksContext {
 public:
  /// Validates parameters, selects the prime chain and builds all tables.
  /// Polynomial work executes through @p backend (the process-wide
  /// ScalarBackend when null) — pass a ThreadPoolBackend to parallelize
  /// every limb-wise operation under this context.
  static std::shared_ptr<const CkksContext> create(
      const CkksParams& params,
      std::shared_ptr<backend::PolyBackend> backend = nullptr);

  const CkksParams& params() const noexcept { return params_; }
  const std::vector<u64>& primes() const noexcept { return primes_; }
  std::shared_ptr<const poly::PolyContext> poly_context() const noexcept {
    return poly_ctx_;
  }
  backend::PolyBackend& backend() const noexcept {
    return poly_ctx_->backend();
  }
  const xf::CkksDwtPlan& dwt() const noexcept { return *dwt_; }

  std::size_t n() const noexcept { return params_.n(); }
  std::size_t slots() const noexcept { return params_.slots(); }
  std::size_t max_limbs() const noexcept { return params_.num_limbs; }

  /// Fresh polynomial helper.
  poly::RnsPoly make_poly(std::size_t limbs, poly::Domain domain) const {
    return poly::RnsPoly(poly_ctx_, limbs, domain);
  }
  /// Fresh polynomial whose coefficients are left uninitialized, for an
  /// output the caller overwrites whole (poly::ForOverwrite).
  poly::RnsPoly make_poly_for_overwrite(std::size_t limbs,
                                        poly::Domain domain) const {
    return poly::RnsPoly(poly_ctx_, limbs, domain, poly::kForOverwrite);
  }

  /// Reserves @p count consecutive values from the context-wide PRNG
  /// stream-id counter. Every encryptor and client session bound to this
  /// context draws its counter blocks here, so two of them sharing a
  /// context can never hand out the same id — per-instance counters would
  /// both start at 0 and replay each other's keystreams (see
  /// encryptor.hpp for why that leaks). The counter is per-context, not
  /// process-global, so a fresh context replays the same deterministic id
  /// sequence — the property every thread-count-invariance test relies on.
  /// Uniqueness across *context lifetimes* (process restarts re-deriving
  /// the same seed) remains the caller's responsibility.
  u64 reserve_stream_ids(u64 count) const noexcept {
    return stream_counter_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Reserves @p count consecutive secret-key ids. Kept separate from the
  /// stream counter because secret ids live on the other axis — they salt
  /// the upper bits of every derived stream id and have a 16-bit budget
  /// (ksk_base_stream_id) — so encryption traffic must not burn through
  /// them. Context-wide for the same reason as the stream counter: two
  /// KeyGenerators (or ClientSessions) sharing a context draw *distinct*
  /// secrets instead of silently regenerating the same one for what the
  /// caller intends to be different users.
  u64 reserve_secret_ids(u64 count) const noexcept {
    return secret_counter_.fetch_add(count, std::memory_order_relaxed);
  }

  CkksContext(const CkksParams& params,
              std::shared_ptr<backend::PolyBackend> backend);  // use create()

 private:
  CkksParams params_;
  std::vector<u64> primes_;
  std::shared_ptr<const poly::PolyContext> poly_ctx_;
  std::shared_ptr<const xf::CkksDwtPlan> dwt_;  // CkksDwtPlan::shared
  mutable std::atomic<u64> stream_counter_{0};
  mutable std::atomic<u64> secret_counter_{0};
};

}  // namespace abc::ckks
