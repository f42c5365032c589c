#include "rns/rns_basis.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace abc::rns {

namespace {

/// Low 128 bits of a big integer.
u128 low_128(const BigUint& x) {
  const std::vector<u64>& w = x.words();
  u128 v = w.empty() ? 0 : w[0];
  if (w.size() > 1) v |= static_cast<u128>(w[1]) << 64;
  return v;
}

}  // namespace

RnsBasis::RnsBasis(const std::vector<u64>& primes) {
  ABC_CHECK_ARG(!primes.empty(), "RNS basis needs at least one prime");
  moduli_.reserve(primes.size());
  for (u64 p : primes) moduli_.emplace_back(p);
  // Pairwise distinctness (CRT requirement).
  std::vector<u64> sorted = primes;
  std::sort(sorted.begin(), sorted.end());
  ABC_CHECK_ARG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                "RNS primes must be distinct");

  prefixes_.resize(primes.size());
  // qhat[i] = Q_L / q_i for the current level L, grown from level L - 1:
  // the existing entries gain the factor q_{L-1}, and the new last entry is
  // Q_{L-1}, the previous level's product.
  std::vector<BigUint> qhat;
  qhat.reserve(primes.size());
  BigUint q(1);
  for (std::size_t level = 1; level <= primes.size(); ++level) {
    const u64 p = primes[level - 1];
    for (BigUint& h : qhat) h = h * p;
    qhat.push_back(q);
    q = q * p;
    Prefix& pre = prefixes_[level - 1];
    pre.q = q;
    pre.word_count = q.word_count();
    pre.q_low = low_128(q);
    pre.narrow = q.bit_length() <= 127;
    pre.qhat_inv.reserve(level);
    pre.qhat_inv_shoup.reserve(level);
    pre.qhat_words.reserve(level);
    pre.qhat_low.reserve(level);
    for (std::size_t i = 0; i < level; ++i) {
      const u64 qhat_mod = qhat[i].mod_u64(primes[i]);
      pre.qhat_inv.push_back(moduli_[i].inv(qhat_mod));
      pre.qhat_inv_shoup.push_back(
          ShoupMul::make(pre.qhat_inv.back(), moduli_[i]).quotient);
      pre.qhat_low.push_back(low_128(qhat[i]));
      std::vector<u64> words = qhat[i].words();
      words.resize(pre.word_count, 0);
      pre.qhat_words.push_back(std::move(words));
    }
  }
}

const BigUint& RnsBasis::product(std::size_t limbs) const {
  return prefix(limbs).q;
}

const RnsBasis::Prefix& RnsBasis::prefix(std::size_t limbs) const {
  ABC_CHECK_ARG(limbs >= 1 && limbs <= moduli_.size(),
                "prefix level out of range");
  return prefixes_[limbs - 1];
}

void RnsBasis::decompose_i64(i64 x, std::span<u64> out) const {
  ABC_CHECK_ARG(out.size() <= moduli_.size(), "too many limbs requested");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = moduli_[i].from_signed(x);
  }
}

CrtComposer::CrtComposer(const RnsBasis& basis, std::size_t limbs)
    : basis_(basis), limbs_(limbs), prefix_(basis.prefix(limbs)) {
  acc_.resize(prefix_.word_count + 1);
  q_words_ = prefix_.q.words();
  q_words_.resize(acc_.size(), 0);
}

void CrtComposer::accumulate(std::span<const u64> residues) {
  ABC_CHECK_ARG(residues.size() == limbs_, "residue count mismatch");
  std::fill(acc_.begin(), acc_.end(), 0);
  for (std::size_t i = 0; i < limbs_; ++i) {
    const Modulus& qi = basis_.modulus(i);
    const u64 yi = qi.mul(residues[i], prefix_.qhat_inv[i]);
    // acc += yi * qhat_i  (word-by-word multiply-accumulate)
    const std::vector<u64>& words = prefix_.qhat_words[i];
    u64 carry = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      const u128 cur = static_cast<u128>(acc_[w]) + mul_wide(yi, words[w]) + carry;
      acc_[w] = lo64(cur);
      carry = hi64(cur);
    }
    std::size_t w = words.size();
    while (carry != 0 && w < acc_.size()) {
      const u128 cur = static_cast<u128>(acc_[w]) + carry;
      acc_[w] = lo64(cur);
      carry = hi64(cur);
      ++w;
    }
  }
  // acc < limbs * Q; reduce by subtracting multiples of Q. limbs <= ~40 so a
  // subtraction loop is fine and branch-predictable.
  auto geq_q = [&]() {
    for (std::size_t w = acc_.size(); w-- > 0;) {
      if (acc_[w] != q_words_[w]) return acc_[w] > q_words_[w];
    }
    return true;  // equal counts as >= so we land in [0, Q)
  };
  while (geq_q()) {
    u64 borrow = 0;
    for (std::size_t w = 0; w < acc_.size(); ++w) {
      const u128 rhs = static_cast<u128>(q_words_[w]) + borrow;
      const u128 lhs = acc_[w];
      if (lhs >= rhs) {
        acc_[w] = static_cast<u64>(lhs - rhs);
        borrow = 0;
      } else {
        acc_[w] = static_cast<u64>((u128{1} << 64) + lhs - rhs);
        borrow = 1;
      }
    }
  }
}

double CrtComposer::compose_centered(std::span<const u64> residues) {
  accumulate(residues);
  // Centering must happen in the integer domain: for values near Q the
  // double conversion of acc and Q collapses to the same number and the
  // difference (the actual small signed value) would be lost.
  auto to_double = [](std::span<const u64> words) {
    double v = 0.0;
    for (std::size_t w = words.size(); w-- > 0;) {
      v = v * 18446744073709551616.0 + static_cast<double>(words[w]);
    }
    return v;
  };
  // acc > Q/2 <=> 2*acc > Q; compare without modifying acc via top-down scan
  // of (acc << 1) against q.
  bool greater_than_half = false;
  for (std::size_t w = acc_.size(); w-- > 0;) {
    const u64 doubled = (acc_[w] << 1) | (w > 0 ? acc_[w - 1] >> 63 : 0);
    if (doubled != q_words_[w]) {
      greater_than_half = doubled > q_words_[w];
      break;
    }
  }
  if (!greater_than_half) return to_double(acc_);
  // value - Q, computed as -(Q - acc).
  std::vector<u64>& diff = diff_scratch_;
  diff.assign(acc_.size(), 0);
  u64 borrow = 0;
  for (std::size_t w = 0; w < acc_.size(); ++w) {
    const u128 rhs = static_cast<u128>(acc_[w]) + borrow;
    const u128 lhs = q_words_[w];
    if (lhs >= rhs) {
      diff[w] = static_cast<u64>(lhs - rhs);
      borrow = 0;
    } else {
      diff[w] = static_cast<u64>((u128{1} << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  return -to_double(diff);
}

BigUint CrtComposer::compose_exact(std::span<const u64> residues) {
  accumulate(residues);
  return BigUint::from_words(acc_);
}

}  // namespace abc::rns
