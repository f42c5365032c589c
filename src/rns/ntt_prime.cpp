#include "rns/ntt_prime.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/math_util.hpp"
#include "rns/montgomery.hpp"

namespace abc::rns {
namespace {

NttPrimeInfo make_info(u64 q, int bit_count, int log_n, int mont_r_bits) {
  NttPrimeInfo info;
  info.value = q;
  info.bit_count = bit_count;
  const i128 anchor = static_cast<i128>(1) << bit_count;
  const i128 step = static_cast<i128>(1) << (log_n + 1);
  info.k = static_cast<i64>((static_cast<i128>(q) - 1 - anchor) / step);
  info.q_weight = naf_weight(static_cast<i128>(q) - 1);
  // QInv weight for the requested Montgomery radix. The radix must exceed
  // the prime width; widen if the caller picked something too small.
  const int r = std::max(mont_r_bits, bit_count + 2);
  Montgomery mont(q, std::min(r, 64));
  info.qinv_weight = mont.neg_qinv_naf().weight();
  return info;
}

/// The paper's hardware-friendly form: (Q - 1) has signed-digit weight
/// at most 1 + max_k_terms.
bool is_sparse(const NttPrimeInfo& p, int max_k_terms) {
  return p.q_weight <= 1 + max_k_terms;
}

}  // namespace

const std::vector<NttPrimeInfo>& enumerate_ntt_primes(int bit_count,
                                                      int log_n,
                                                      int mont_r_bits) {
  ABC_CHECK_ARG(bit_count >= log_n + 3 && bit_count <= 61,
                "prime width incompatible with degree");
  // The scan tests ~2^(bit_count - log_n - 2) Miller-Rabin candidates, so
  // results are memoized: many tests and benches share parameter sets.
  // Entries are never modified or erased and map nodes do not move, so
  // the returned reference stays valid for the life of the process.
  static std::mutex cache_mutex;
  static std::map<std::tuple<int, int, int>, std::vector<NttPrimeInfo>> cache;
  const auto key = std::make_tuple(bit_count, log_n, mont_r_bits);
  {
    std::scoped_lock lock(cache_mutex);
    if (auto it = cache.find(key); it != cache.end()) return it->second;
  }
  const u64 step = u64{1} << (log_n + 1);
  const u64 lo = u64{1} << (bit_count - 1);
  const u64 hi = u64{1} << bit_count;
  std::vector<NttPrimeInfo> out;
  // Candidates are 1 + m*step inside [lo, hi).
  u64 first = (lo / step) * step + 1;
  if (first < lo) first += step;
  for (u64 q = first; q < hi; q += step) {
    if (is_prime_u64(q)) {
      out.push_back(make_info(q, bit_count, log_n, mont_r_bits));
    }
  }
  std::scoped_lock lock(cache_mutex);
  return cache.emplace(key, std::move(out)).first->second;
}

std::vector<NttPrimeInfo> enumerate_sparse_ntt_primes(int bit_count, int log_n,
                                                      int max_k_terms,
                                                      int mont_r_bits) {
  std::vector<NttPrimeInfo> out;
  for (const NttPrimeInfo& p :
       enumerate_ntt_primes(bit_count, log_n, mont_r_bits)) {
    if (is_sparse(p, max_k_terms)) out.push_back(p);
  }
  return out;
}

std::size_t count_sparse_ntt_primes(int bit_lo, int bit_hi, int log_n,
                                    int max_k_terms) {
  std::size_t total = 0;
  for (int bw = bit_lo; bw <= bit_hi; ++bw) {
    const std::vector<NttPrimeInfo>& all = enumerate_ntt_primes(bw, log_n);
    total += static_cast<std::size_t>(
        std::count_if(all.begin(), all.end(), [&](const NttPrimeInfo& p) {
          return is_sparse(p, max_k_terms);
        }));
  }
  return total;
}

std::vector<NttPrimeInfo> enumerate_paper_friendly_primes(int bit_count,
                                                          int log_n,
                                                          int mont_r_bits) {
  std::vector<NttPrimeInfo> out;
  for (const NttPrimeInfo& p :
       enumerate_ntt_primes(bit_count, log_n, mont_r_bits)) {
    if (is_sparse(p, 3) && p.qinv_weight <= 5) out.push_back(p);  // eq. 11
  }
  return out;
}

std::vector<u64> select_prime_chain(int bit_count, int log_n,
                                    std::size_t count) {
  // For small degrees the candidate space [2^(b-1), 2^b) / 2N is huge
  // (hundreds of millions at log_n <= 8); full enumeration is pointless
  // when only `count` primes are needed. Scan downward instead — NTT
  // primes are dense enough (one per ~ln(2^b) * small factor candidates).
  const u64 candidates = (u64{1} << (bit_count - 1)) >> (log_n + 1);
  if (candidates > (u64{1} << 20)) {
    const u64 step = u64{1} << (log_n + 1);
    std::vector<u64> chain;
    u64 q = ((u64{1} << bit_count) / step) * step + 1;
    while (chain.size() < count && q > (u64{1} << (bit_count - 1))) {
      if (q < (u64{1} << bit_count) && is_prime_u64(q)) chain.push_back(q);
      q -= step;
    }
    ABC_CHECK_ARG(chain.size() == count,
                  "not enough NTT primes of the requested width");
    return chain;
  }

  const std::vector<NttPrimeInfo>& all =
      enumerate_ntt_primes(bit_count, log_n);
  std::vector<u64> chain;
  chain.reserve(count);
  // Sparse primes first, then generic NTT primes if the sparse pool runs
  // out; each pass largest first (deeper chain levels use later entries,
  // matching the usual CKKS convention of descending primes).
  for (const bool sparse : {true, false}) {
    for (auto it = all.rbegin(); it != all.rend() && chain.size() < count;
         ++it) {
      if (is_sparse(*it, 3) == sparse) chain.push_back(it->value);
    }
  }
  ABC_CHECK_ARG(chain.size() == count,
                "not enough NTT primes of the requested width");
  return chain;
}

}  // namespace abc::rns
