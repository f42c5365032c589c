#include "rns/modulus.hpp"

#include "common/bitops.hpp"
#include "common/math_util.hpp"

namespace abc::rns {

Modulus::Modulus(u64 value) : value_(value) {
  ABC_CHECK_ARG(value >= 2, "modulus must be >= 2");
  ABC_CHECK_ARG(value >> 62 == 0, "modulus must fit in 62 bits");
  bit_count_ = bit_length(value);
  // floor(2^128 / q): long division of 2^128 by q using 128-bit steps.
  // 2^128 = (2^128 - 1) + 1; compute via ((2^128-1) / q) adjusting when q
  // divides 2^128 exactly (impossible for odd q > 1, but handle generally).
  const u128 all_ones = ~static_cast<u128>(0);
  u128 quotient = all_ones / value;
  u128 rem = all_ones % value;
  if (rem + 1 == value) quotient += 1;  // (2^128-1) rem q == q-1 -> exact bump
  ratio_lo_ = lo64(quotient);
  ratio_hi_ = hi64(quotient);
}

u64 Modulus::reduce(u64 x) const noexcept {
  // Barrett with single-word input: estimate quotient via the high ratio
  // word; at most one correction.
  const u64 estimate = mul_hi(x, ratio_hi_);
  u64 r = x - estimate * value_;
  while (r >= value_) r -= value_;
  return r;
}

u64 Modulus::pow(u64 base, u64 exponent) const noexcept {
  u64 result = 1;
  u64 b = reduce(base);
  while (exponent != 0) {
    if (exponent & 1) result = mul(result, b);
    b = mul(b, b);
    exponent >>= 1;
  }
  return result;
}

u64 Modulus::inv(u64 a) const {
  auto r = inverse_mod_u64(a, value_);
  ABC_CHECK_ARG(r.has_value(), "element has no inverse modulo q");
  return *r;
}

}  // namespace abc::rns
