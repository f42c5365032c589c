#include "transform/ntt.hpp"

#include <utility>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/shared_registry.hpp"
#include "transform/op_counter.hpp"

namespace abc::xf {

u64 find_primitive_2n_root(const rns::Modulus& q, int log_n) {
  const u64 two_n = u64{1} << (log_n + 1);
  ABC_CHECK_ARG((q.value() - 1) % two_n == 0, "q != 1 mod 2N");
  const u64 cofactor = (q.value() - 1) / two_n;
  // Bounded deterministic candidate search. For candidate = g^cofactor the
  // order validation is exact and unconditional: candidate^N == -1 forces
  // candidate^{2N} == 1 and candidate^N != 1, so ord(candidate) divides the
  // power of two 2N but not N — i.e. ord(candidate) == 2N exactly. For
  // prime q the test passes iff g is a quadratic non-residue (density 1/2),
  // so the bound is never approached; it exists to fail fast on non-prime
  // input instead of scanning to q. Perfect-square g (4, 9, 16, ...) are
  // always residues and can never succeed, so candidates are drawn from
  // small primes first, then odd integers.
  constexpr u64 kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                  23, 29, 31, 37, 41, 43, 47, 53};
  constexpr u64 kMaxCandidates = 4096;
  u64 tried = 0;
  auto try_generator = [&](u64 g) -> u64 {
    ++tried;
    const u64 candidate = q.pow(g, cofactor);
    if (q.pow(candidate, two_n / 2) == q.value() - 1) return candidate;
    return 0;
  };
  for (u64 g : kSmallPrimes) {
    if (g >= q.value()) break;
    if (const u64 r = try_generator(g)) return r;
  }
  for (u64 g = 55; tried < kMaxCandidates && g < q.value(); g += 2) {
    if (const u64 r = try_generator(g)) return r;
  }
  ABC_CHECK_STATE(false,
                  "no primitive 2N-th root among bounded candidates "
                  "(q not prime?)");
  return 0;
}

NttTables::NttTables(const rns::Modulus& q, int log_n)
    : q_(q), log_n_(log_n), n_(std::size_t{1} << log_n) {
  ABC_CHECK_ARG(log_n >= 1 && log_n <= 20, "log_n out of range");
  psi_ = find_primitive_2n_root(q, log_n);
  psi_inv_ = q_.inv(psi_);
  w_.resize(n_);
  w_shoup_.resize(n_);
  // Incremental products: psi^i costs one modular multiply per index
  // (instead of one q.pow each — O(N log q)), scattered to bit-reversed
  // positions.
  u64 fwd = 1;
  for (std::size_t i = 0; i < n_; ++i) {
    w_[bit_reverse(i, log_n_)] = fwd;
    fwd = q_.mul(fwd, psi_);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    w_shoup_[i] = rns::ShoupMul::make(w_[i], q_).quotient;
  }
  n_inv_ = rns::ShoupMul::make(q_.inv(static_cast<u64>(n_ % q_.value())), q_);
}

std::shared_ptr<const NttTables> NttTables::shared(const rns::Modulus& q,
                                                   int log_n) {
  static SharedRegistry<std::pair<u64, int>, NttTables> registry;
  return registry.get({q.value(), log_n}, [&] {
    return std::make_shared<const NttTables>(q, log_n);
  });
}

void NttTables::forward(std::span<u64> a) const {
  ABC_CHECK_ARG(a.size() == n_, "polynomial size mismatch");
  simd::ntt_forward_lazy(layout(), a.data());
  op_counts().ntt_mul += (n_ / 2) * static_cast<u64>(log_n_);
  op_counts().ntt_add += n_ * static_cast<u64>(log_n_);
}

void NttTables::inverse(std::span<u64> a) const {
  ABC_CHECK_ARG(a.size() == n_, "polynomial size mismatch");
  simd::ntt_inverse_lazy(layout(), a.data());
  op_counts().ntt_mul += (n_ / 2) * static_cast<u64>(log_n_) + n_;
  op_counts().ntt_add += n_ * static_cast<u64>(log_n_);
}

void NttTables::forward_eager(std::span<u64> a) const {
  ABC_CHECK_ARG(a.size() == n_, "polynomial size mismatch");
  const u64 qv = q_.value();
  std::size_t t = n_;
  for (std::size_t m = 1; m < n_; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const rns::ShoupMul s{w_[m + i], w_shoup_[m + i]};
      const std::size_t j1 = 2 * i * t;
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];
        const u64 v = s.mul(a[j + t], qv);
        a[j] = q_.add(u, v);
        a[j + t] = q_.sub(u, v);
      }
    }
  }
  op_counts().ntt_mul += (n_ / 2) * static_cast<u64>(log_n_);
  op_counts().ntt_add += n_ * static_cast<u64>(log_n_);
}

void NttTables::inverse_eager(std::span<u64> a) const {
  ABC_CHECK_ARG(a.size() == n_, "polynomial size mismatch");
  const u64 qv = q_.value();
  const simd::NttLayout L = layout();
  // Exact mirror of forward_eager(): Gentleman-Sande butterflies with
  // inverse twiddles, stages in reverse order; the per-stage 1/2 factors
  // are folded into the final N^{-1} multiplication.
  std::size_t t = 1;
  for (std::size_t m = n_ >> 1; m >= 1; m >>= 1) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto [w, w_shoup] = simd::inverse_twiddle(L, m, i);
      const rns::ShoupMul s{w, w_shoup};
      const std::size_t j1 = 2 * i * t;
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 x = a[j];
        const u64 y = a[j + t];
        a[j] = q_.add(x, y);
        a[j + t] = s.mul(q_.sub(x, y), qv);
      }
    }
    t <<= 1;
  }
  for (std::size_t j = 0; j < n_; ++j) a[j] = n_inv_.mul(a[j], qv);
  op_counts().ntt_mul += (n_ / 2) * static_cast<u64>(log_n_) + n_;
  op_counts().ntt_add += n_ * static_cast<u64>(log_n_);
}

std::vector<u64> negacyclic_mult_schoolbook(std::span<const u64> a,
                                            std::span<const u64> b,
                                            const rns::Modulus& q) {
  ABC_CHECK_ARG(a.size() == b.size(), "size mismatch");
  const std::size_t n = a.size();
  std::vector<u64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = q.mul(a[i], b[j]);
      const std::size_t k = i + j;
      if (k < n) {
        c[k] = q.add(c[k], prod);
      } else {
        c[k - n] = q.sub(c[k - n], prod);  // X^N == -1
      }
    }
  }
  return c;
}

}  // namespace abc::xf
