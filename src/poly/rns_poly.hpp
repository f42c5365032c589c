#pragma once

/// @file rns_poly.hpp
/// Polynomial in R_Q = Z_Q[X]/(X^N + 1) stored limb-wise in the RNS, with a
/// domain tag distinguishing coefficient form from NTT (evaluation) form.
/// Element-wise operations are only legal between polynomials in the same
/// domain at the same level; the class enforces that at runtime.
///
/// All element-wise arithmetic and domain conversions fan out one limb per
/// index through the parallel_for of the PolyBackend the PolyContext owns
/// (see backend/poly_backend.hpp), so the same code runs serially or
/// across a worker pool depending on how the context was built.

#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "poly/poly_context.hpp"

namespace abc::poly {

enum class Domain {
  kCoeff,  // coefficient representation
  kEval,   // NTT / evaluation representation (bit-reversed order)
};

/// Selects the RnsPoly constructor that leaves the coefficients
/// uninitialized.
struct ForOverwrite {
  explicit ForOverwrite() = default;
};
inline constexpr ForOverwrite kForOverwrite{};

/// std::allocator whose value-less construct() default-initializes, so a
/// vector of words grows without zeroing unless a value is given.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

class RnsPoly {
 public:
  /// Zero polynomial.
  RnsPoly(std::shared_ptr<const PolyContext> ctx, std::size_t limbs,
          Domain domain);
  /// Allocated but not zeroed: the caller must overwrite every coefficient
  /// before anything reads it. Saves the zero-fill pass (a 24-limb
  /// polynomial at N = 2^16 is 12 MiB) for outputs a kernel writes whole.
  RnsPoly(std::shared_ptr<const PolyContext> ctx, std::size_t limbs,
          Domain domain, ForOverwrite);

  const PolyContext& context() const noexcept { return *ctx_; }
  std::shared_ptr<const PolyContext> context_ptr() const noexcept {
    return ctx_;
  }
  std::size_t n() const noexcept { return ctx_->n(); }
  std::size_t limbs() const noexcept { return limbs_; }
  Domain domain() const noexcept { return domain_; }

  std::span<u64> limb(std::size_t i);
  std::span<const u64> limb(std::size_t i) const;

  /// Size in bytes at a given packed word width (for DRAM traffic models).
  double packed_bytes(int bits_per_coeff) const noexcept {
    return static_cast<double>(limbs_ * n()) * bits_per_coeff / 8.0;
  }

  // -- domain conversion ---------------------------------------------------
  void to_eval();   // forward NTT on every limb
  void to_coeff();  // inverse NTT on every limb

  // -- initialization ------------------------------------------------------
  /// Re-initializes to @p limbs limbs in @p domain, reusing the existing
  /// allocation when its capacity suffices (hot-path scratch). Coefficient
  /// contents are unspecified afterwards: callers must overwrite every
  /// coefficient (via set_from_signed* or a sampler fill) before use.
  void reset(std::size_t limbs, Domain domain);
  /// RNS-expand centered signed coefficients into every limb ("Expand RNS").
  void set_from_signed(std::span<const i64> coeffs);
  void set_from_signed_i32(std::span<const i32> coeffs);

  // -- element-wise arithmetic (same domain, same limbs) --------------------
  void add_inplace(const RnsPoly& other);
  void sub_inplace(const RnsPoly& other);
  void negate_inplace();
  // A `key` operand may carry more limbs than the result: its prefix is
  // read in place (a full-length secret against a lower-level ciphertext).
  /// Dyadic product this *= key; requires evaluation domain.
  void mul_inplace(const RnsPoly& key);
  /// this += a * b (single pass, evaluation domain).
  void fma_inplace(const RnsPoly& a, const RnsPoly& b);
  /// this = base + a * key (fused copy-then-fma, one pass; evaluation
  /// domain). Adopts base's domain/limbs; this must not alias a or key.
  void set_fma(const RnsPoly& base, const RnsPoly& a, const RnsPoly& key);
  /// this = base - a * key (fused mul, negate and add, one pass; evaluation
  /// domain). Adopts base's domain/limbs; this must not alias a or key.
  void set_fms(const RnsPoly& base, const RnsPoly& a, const RnsPoly& key);
  /// Multiply limb i by scalar mod q_i (same scalar reduced per limb).
  void mul_scalar_inplace(u64 scalar);

  /// Drop the last limb (rescale bookkeeping; data is truncated).
  void drop_last_limb();

  /// Deep copy with fewer limbs (prefix).
  RnsPoly prefix_copy(std::size_t limbs) const;

  /// Copies the first @p limbs limbs of @p src into this polynomial,
  /// adopting src's domain and reusing this allocation when possible.
  void assign_prefix(const RnsPoly& src, std::size_t limbs);

 private:
  void check_compatible(const RnsPoly& other) const;
  /// check_compatible, but @p key may carry more limbs.
  void check_key_operand(const RnsPoly& key) const;
  /// RNS-expands centered signed coefficients into every limb.
  template <class I>
  void expand(std::span<const I> coeffs);

  /// Limb i's coefficients in limb-major storage (unchecked).
  u64* words(std::size_t i) noexcept { return data_.data() + i * n(); }
  const u64* words(std::size_t i) const noexcept {
    return data_.data() + i * n();
  }

  std::shared_ptr<const PolyContext> ctx_;
  std::size_t limbs_;
  Domain domain_;
  // limbs_ * n contiguous, limb-major
  std::vector<u64, DefaultInitAllocator<u64>> data_;
};

}  // namespace abc::poly
