#pragma once

/// @file modulus.hpp
/// A word-sized prime modulus with Barrett reduction precomputation, plus
/// Shoup multiplication for constant operands (twiddle factors). This is the
/// fast software arithmetic used by the reference CKKS implementation; the
/// hardware-style datapath models live in modmul_algorithms.hpp.

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace abc::rns {

/// Immutable modulus q with floor(2^128 / q) precomputed for Barrett
/// reduction of 128-bit products. Supports q up to 62 bits.
class Modulus {
 public:
  Modulus() = default;
  explicit Modulus(u64 value);

  u64 value() const noexcept { return value_; }
  int bit_count() const noexcept { return bit_count_; }
  bool is_zero() const noexcept { return value_ == 0; }

  bool operator==(const Modulus& other) const noexcept {
    return value_ == other.value_;
  }

  /// x mod q for any 64-bit x.
  u64 reduce(u64 x) const noexcept;

  /// x mod q for any 128-bit x (Barrett with the 2^128 ratio).
  u64 reduce_128(u128 x) const noexcept {
    // qhat = floor(x * ratio / 2^128), computed word-by-word.
    const u64 x0 = lo64(x);
    const u64 x1 = hi64(x);
    const u128 a = mul_wide(x0, ratio_lo_);
    const u128 b = mul_wide(x1, ratio_lo_);
    const u128 c = mul_wide(x0, ratio_hi_);
    const u128 mid = static_cast<u128>(hi64(a)) + lo64(b) + lo64(c);
    const u64 qhat =
        x1 * ratio_hi_ + hi64(b) + hi64(c) + hi64(mid);  // low word suffices
    u64 r = x0 - qhat * value_;  // mod 2^64 wrap; true remainder < ~3q
    while (r >= value_) r -= value_;
    return r;
  }

  u64 add(u64 a, u64 b) const noexcept {
    u64 s = a + b;
    return s >= value_ ? s - value_ : s;
  }
  u64 sub(u64 a, u64 b) const noexcept {
    return a >= b ? a - b : a + value_ - b;
  }
  u64 negate(u64 a) const noexcept { return a == 0 ? 0 : value_ - a; }
  u64 mul(u64 a, u64 b) const noexcept { return reduce_128(mul_wide(a, b)); }

  u64 pow(u64 base, u64 exponent) const noexcept;

  /// Multiplicative inverse (q must be prime for exponent-based inverse of
  /// arbitrary elements; validated at construction for the prime chain).
  u64 inv(u64 a) const;

  /// Centered signed representative in (-q/2, q/2].
  i64 to_centered(u64 a) const noexcept {
    return a > value_ / 2 ? static_cast<i64>(a) - static_cast<i64>(value_)
                          : static_cast<i64>(a);
  }
  /// Map a signed value into [0, q). Samples and encoded coefficients sit
  /// in [-q, q), where the lift is x or x + q with no division; the `%`
  /// path only serves wider inputs.
  u64 from_signed(i64 x) const noexcept {
    const i64 q = static_cast<i64>(value_);
    if (x >= -q && x < q) [[likely]] {
      return static_cast<u64>(x < 0 ? x + q : x);
    }
    i64 r = x % q;
    if (r < 0) r += q;
    return static_cast<u64>(r);
  }

 private:
  u64 value_ = 0;
  int bit_count_ = 0;
  // floor(2^128 / q) as two 64-bit words (lo, hi).
  u64 ratio_lo_ = 0;
  u64 ratio_hi_ = 0;
};

/// Precomputed Shoup representation of a constant multiplicand w < q:
/// stores floor(w * 2^64 / q) so that (x * w) mod q costs one mul_hi, one
/// mul_lo and a conditional subtraction. Exactly the trick fast software
/// NTTs use for twiddle factors.
struct ShoupMul {
  u64 operand = 0;
  u64 quotient = 0;

  static ShoupMul make(u64 operand, const Modulus& q) {
    ABC_CHECK_ARG(operand < q.value(), "Shoup operand must be < q");
    const u128 wide = static_cast<u128>(operand) << 64;
    return {operand, static_cast<u64>(wide / q.value())};
  }

  /// (x * operand) mod q, fully reduced.
  ///
  /// Input-domain contract (Harvey's bound): operand < q is required; x may
  /// be ANY 64-bit value — in particular the lazily-reduced values in
  /// [0, 2q) or [0, 4q) the Harvey NTT kernels circulate. The raw product
  /// x*operand - floor(x*quotient/2^64)*q is always < 2q, so one
  /// conditional subtraction reaches the canonical [0, q) representative.
  u64 mul(u64 x, u64 q) const noexcept {
    const u64 r = mul_lazy(x, q);
    return r >= q ? r - q : r;
  }

  /// Lazy variant without the final conditional subtraction: result < 2q
  /// (same contract: operand < q, any 64-bit x). Building block of the
  /// lazy-reduction butterflies, which defer canonicalization to a single
  /// correction pass.
  u64 mul_lazy(u64 x, u64 q) const noexcept {
    const u64 hi = mul_hi(x, quotient);
    return x * operand - hi * q;  // wraps mod 2^64 by construction
  }
};

}  // namespace abc::rns
