#pragma once

/// @file crt_block_composer.hpp
/// Whole-polynomial CRT recomposition without big integers: the decoder's
/// "Combine CRT" step (the paper's Fig. 2a), bit-identical to the BigUint
/// reference rns::CrtComposer::compose_centered().

#include <span>
#include <vector>

#include "poly/poly_context.hpp"
#include "rns/rns_basis.hpp"

namespace abc::poly {

/// Recombines a block of coefficients at a time: y_i = x_i * qhat_i^{-1}
/// mod q_i per limb (one Shoup simd::dyadic_mul_scalar pass on the
/// context's per-limb constants), then per coefficient sum(y_i * qhat_i)
/// mod 2^128 minus r * Q, where r = round(sum(y_i / q_i)) is estimated in
/// double. The result is certified exact before it is used: r must not
/// sit within the estimate's error of a rounding tie, and when Q >= 2^127
/// the u128 value must also reproduce every residue, which rules out
/// centered values outside [-2^127, 2^127) (the u128 keeps only their low
/// bits). A coefficient that fails either test goes through the
/// word-by-word BigUint accumulate of compose_centered(). Either way the
/// output is bit-identical to compose_centered().
class CrtBlockComposer {
 public:
  /// Coefficients per block of the u128 path; sizes the y_i scratch.
  static constexpr std::size_t kBlock = 256;

  CrtBlockComposer(const PolyContext& ctx, std::size_t limbs);

  /// out[k] = compose_centered() of coefficient begin + k, whose residue
  /// mod q_i is rows[i][begin + k]. Returns how many coefficients took the
  /// BigUint fallback.
  std::size_t compose(std::span<const u64* const> rows, std::size_t begin,
                      std::span<double> out);

 private:
  std::size_t compose_block(std::span<const u64* const> rows,
                            std::size_t begin, std::span<double> out);

  const PolyContext& ctx_;
  std::size_t limbs_;
  const rns::RnsBasis::Prefix& prefix_;
  rns::CrtComposer reference_;  // the fallback
  std::vector<double> inv_q_;   // 1 / q_i
  double tie_slack_;            // error bound of sum(y_i / q_i) in double
  std::vector<u64> y_;          // limbs x kBlock
  std::vector<u64> residues_;   // one coefficient, for the fallback
};

}  // namespace abc::poly
