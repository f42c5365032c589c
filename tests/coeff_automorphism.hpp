#pragma once

// Test-local reference for the Galois automorphism in the coefficient
// domain. The library applies sigma_g only in the evaluation domain
// (ckks::build_galois_eval_table + ckks::apply_galois_eval); this direct
// form is what the tests check that permutation against.

#include <cstddef>
#include <span>

#include "common/check.hpp"
#include "poly/rns_poly.hpp"

namespace abc::testing_ref {

/// sigma_g: X -> X^g over Z[X]/(X^N + 1) on a coefficient-domain
/// polynomial. Coefficient i lands at position i*g mod 2N, negated when it
/// falls in the upper half (X^N = -1). Requires an odd @p galois_elt < 2N.
inline poly::RnsPoly coeff_automorphism(const poly::RnsPoly& p,
                                        u32 galois_elt) {
  ABC_CHECK_ARG(p.domain() == poly::Domain::kCoeff,
                "automorphism requires coefficient domain");
  const std::size_t n = p.n();
  ABC_CHECK_ARG((galois_elt & 1u) != 0 && galois_elt < 2 * n,
                "galois element must be odd and < 2N");
  poly::RnsPoly out = p;
  for (std::size_t l = 0; l < p.limbs(); ++l) {
    const rns::Modulus& q = p.context().modulus(l);
    const std::span<const u64> src = p.limb(l);
    const std::span<u64> dst = out.limb(l);
    std::size_t idx = 0;  // i * g mod 2N
    for (std::size_t i = 0; i < n; ++i) {
      if (idx < n) {
        dst[idx] = src[i];
      } else {
        dst[idx - n] = q.negate(src[i]);
      }
      idx = (idx + galois_elt) & (2 * n - 1);
    }
  }
  return out;
}

}  // namespace abc::testing_ref
