#pragma once

/// @file ntt_prime.hpp
/// NTT-friendly prime selection (paper Sec. IV-A).
///
/// A negacyclic NTT of degree N requires q == 1 (mod 2N). The paper further
/// restricts primes to the form
///     Q = 2^bw + k * 2^(n+1) + 1,   k = +/-2^a +/- 2^b +/- 2^c      (eq. 8)
/// so that both Q and QInv = -Q^{-1} mod R are sparse in signed-binary form
/// and the Montgomery reduction needs no extra multipliers (eq. 11).
///
/// We operationalize "sparse" as: the signed-digit (NAF) weight of (Q - 1)
/// is at most 1 + max_k_terms (the leading 2^bw term plus the k terms).
/// The paper reports 443 such 32-36-bit primes for N = 2^16; the bench
/// bench_table1_modmul reproduces that count with this enumeration.

#include <vector>

#include "common/types.hpp"

namespace abc::rns {

/// Metadata for one candidate NTT prime.
struct NttPrimeInfo {
  u64 value = 0;
  int bit_count = 0;
  /// k such that value = 2^bit_count + k * 2^(log_n + 1) + 1 (k may be
  /// negative when the prime sits below 2^bit_count).
  i64 k = 0;
  /// Signed-digit weight of (value - 1): number of shift-add terms needed
  /// to multiply by Q in hardware.
  int q_weight = 0;
  /// Signed-digit weight of -Q^{-1} mod 2^r for the given Montgomery radix.
  int qinv_weight = 0;
};

/// All primes q == 1 (mod 2^(log_n+1)) with exactly @p bit_count bits,
/// i.e. q in [2^(bit_count-1), 2^bit_count). log_n is log2 of the
/// polynomial degree N. Results are sorted ascending. The list is
/// memoized per (bit_count, log_n, mont_r_bits) for the life of the
/// process; the reference stays valid and the list never changes.
const std::vector<NttPrimeInfo>& enumerate_ntt_primes(int bit_count,
                                                      int log_n,
                                                      int mont_r_bits = 44);

/// Subset of enumerate_ntt_primes whose (Q - 1) signed-digit weight is at
/// most 1 + max_k_terms — the paper's hardware-friendly form with
/// k = sum of at most max_k_terms signed powers of two.
std::vector<NttPrimeInfo> enumerate_sparse_ntt_primes(int bit_count, int log_n,
                                                      int max_k_terms = 3,
                                                      int mont_r_bits = 44);

/// Count of hardware-friendly primes over an inclusive bit range (the
/// paper's "443 primes of 32-36 bits for N = 2^16" claim).
std::size_t count_sparse_ntt_primes(int bit_lo, int bit_hi, int log_n,
                                    int max_k_terms = 3);

/// Primes matching the paper's *full* hardware criterion: sparse Q
/// (eq. 8: leading power + at most 3 signed k-terms) AND sparse QInv
/// (eq. 11: QInv == -2^bw - k*2^(n+1) + 1, i.e. at most 5 signed terms
/// modulo the Montgomery radix). Both the multiplier m*(-QInv) and m*Q
/// then collapse into shift-add networks.
std::vector<NttPrimeInfo> enumerate_paper_friendly_primes(
    int bit_count, int log_n, int mont_r_bits = 44);

/// Select a modulus chain of @p count primes with the given bit width for
/// degree 2^log_n, preferring hardware-friendly (sparse) primes and falling
/// back to generic NTT primes if the sparse pool is too small. Primes are
/// distinct and returned largest-first (CKKS convention: q_0 first).
std::vector<u64> select_prime_chain(int bit_count, int log_n,
                                    std::size_t count);

}  // namespace abc::rns
