#pragma once

/// @file poly_context.hpp
/// Shared immutable context for RNS polynomials: the prime basis, one NTT
/// table per prime, and the execution backend every polynomial operation
/// dispatches through. Built once per parameter set and shared by all
/// polynomials through a shared_ptr. The NTT tables come from
/// xf::NttTables::shared, so contexts whose prime chains overlap (a client
/// and a server in one process, parameter sets sharing a prime prefix)
/// share those primes' tables.

#include <memory>
#include <vector>

#include "backend/poly_backend.hpp"
#include "rns/rns_basis.hpp"
#include "simd/dyadic_kernels.hpp"
#include "transform/ntt.hpp"

namespace abc::poly {

class PolyContext {
 public:
  /// Takes the NTT tables for degree 2^log_n over every prime in @p primes
  /// from the process-wide registry, building those no live context has.
  /// Operations execute through @p backend (the process-wide ScalarBackend
  /// when null).
  PolyContext(int log_n, const std::vector<u64>& primes,
              std::shared_ptr<backend::PolyBackend> backend = nullptr);

  static std::shared_ptr<const PolyContext> create(
      int log_n, const std::vector<u64>& primes,
      std::shared_ptr<backend::PolyBackend> backend = nullptr) {
    return std::make_shared<const PolyContext>(log_n, primes,
                                               std::move(backend));
  }

  int log_n() const noexcept { return log_n_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t max_limbs() const noexcept { return basis_.size(); }

  const rns::RnsBasis& basis() const noexcept { return basis_; }
  const rns::Modulus& modulus(std::size_t limb) const {
    return basis_.modulus(limb);
  }
  const xf::NttTables& ntt(std::size_t limb) const { return *ntt_.at(limb); }

  /// Precomputed per-limb constants for the simd/ dyadic kernels (saves the
  /// 128-bit division DyadicModulus::make costs on every kernel call).
  const simd::DyadicModulus& dyadic(std::size_t limb) const {
    return dyadic_.at(limb);
  }

  backend::PolyBackend& backend() const noexcept { return *backend_; }

 private:
  int log_n_;
  std::size_t n_;
  rns::RnsBasis basis_;
  std::vector<std::shared_ptr<const xf::NttTables>> ntt_;
  std::vector<simd::DyadicModulus> dyadic_;
  std::shared_ptr<backend::PolyBackend> backend_;
};

}  // namespace abc::poly
