#pragma once

/// @file rns_basis.hpp
/// Residue number system over a chain of NTT primes, with CRT
/// recomposition. Encoding expands a centered integer into residues
/// ("Expand RNS" in the paper's Fig. 2a); decoding recombines residues into
/// a centered integer ("Combine CRT") before the final FFT.

#include <span>
#include <vector>

#include "common/bigint.hpp"
#include "rns/modulus.hpp"

namespace abc::rns {

/// An ordered prime chain q_0, ..., q_{L-1}. "Level" here means the number
/// of active limbs (a fresh bootstrappable ciphertext uses all of them; a
/// server-returned ciphertext in the paper uses 2).
class RnsBasis {
 public:
  explicit RnsBasis(const std::vector<u64>& primes);

  std::size_t size() const noexcept { return moduli_.size(); }
  const Modulus& modulus(std::size_t i) const { return moduli_.at(i); }
  std::span<const Modulus> moduli() const noexcept { return moduli_; }

  /// Product of the first @p limbs primes.
  const BigUint& product(std::size_t limbs) const;

  /// Residues of a centered signed value across the first @p limbs primes.
  void decompose_i64(i64 x, std::span<u64> out) const;

  /// CRT data for a prefix of the chain.
  struct Prefix {
    BigUint q;                        // product of the prefix primes
    std::vector<u64> qhat_inv;        // (q / q_i)^{-1} mod q_i
    std::vector<u64> qhat_inv_shoup;  // floor(qhat_inv[i] * 2^64 / q_i)
    std::vector<std::vector<u64>> qhat_words;  // q / q_i in word_count words
    std::size_t word_count = 0;       // words of q
    // (q / q_i) mod 2^128 and q mod 2^128, for poly::CrtBlockComposer.
    std::vector<u128> qhat_low;
    u128 q_low = 0;
    bool narrow = false;  // q < 2^127: every centered value fits in i128
  };
  const Prefix& prefix(std::size_t limbs) const;

 private:
  std::vector<Modulus> moduli_;
  std::vector<Prefix> prefixes_;  // prefixes_[L-1] covers the first L primes
};

/// CRT recomposition of residue vectors into centered doubles through
/// BigUint words, one coefficient at a time: the reference for the
/// decoder's "Combine CRT" step. poly::CrtBlockComposer is the
/// whole-polynomial path decode runs; it falls back to compose_centered()
/// for the coefficients it cannot certify.
class CrtComposer {
 public:
  CrtComposer(const RnsBasis& basis, std::size_t limbs);

  /// residues[i] is the value mod q_i; returns the centered representative
  /// of the CRT recombination in (-Q/2, Q/2] as a double, converted from
  /// its magnitude's words top-down (v = v * 2^64 + word) and negated when
  /// negative.
  double compose_centered(std::span<const u64> residues);

  /// Exact recombination in [0, Q) as a BigUint (slow path, for tests).
  BigUint compose_exact(std::span<const u64> residues);

 private:
  void accumulate(std::span<const u64> residues);

  const RnsBasis& basis_;
  std::size_t limbs_;
  const RnsBasis::Prefix& prefix_;
  std::vector<u64> acc_;          // word_count + 1 scratch words
  std::vector<u64> q_words_;      // prefix q padded to acc_ size
  std::vector<u64> diff_scratch_; // Q - acc scratch for centered negatives
};

}  // namespace abc::rns
