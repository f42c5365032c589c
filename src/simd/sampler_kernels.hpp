#pragma once

/// @file sampler_kernels.hpp
/// The PRNG sampling and RNS-expansion inner loops, with portable, AVX2 and
/// AVX-512 implementations in the per-tier kernel tables (kernels.hpp):
///
///   * uniform_reject — the rejection-and-reduce step of
///     prng::UniformModSampler: keystream words in, residues mod q out;
///   * gaussian_cdt — the CDT count of prng::DiscreteGaussianSampler, one
///     keystream word per sample;
///   * lift_signed — the "Expand RNS" step: signed words mapped into
///     [0, q), optionally plus a canonical limb (encrypt's m + e).
///
/// The samplers hand these kernels the ChaCha20 buffer in place
/// (prng::ChaCha20::read_u64), so a sample costs the keystream plus a few
/// vector ops. Every tier returns the portable body's outputs bit for bit
/// and, for uniform_reject, consumes the same words.
///
/// The vector bodies:
///
///   * uniform_reject (AVX-512): an unsigned compare against the reject
///     bound gives the keep mask; the quotient estimate
///     qhat = trunc(fl(fl(r) * fl(1/q))) is off from floor(r/q) by at most
///     one (see UniformModulus::vector_ok), so r - qhat*q (vpmullq) lies in
///     [-q, 2q) and two conditional corrections make it canonical;
///     vpcompressq packs the kept lanes. Moduli outside vector_ok run the
///     portable body. The AVX2 entry is the portable body: AVX2 has no
///     64-bit multiply, double conversion or compress, and an emulated
///     version ran no faster at the library's primes.
///   * gaussian_cdt: eight (AVX-512) or four (AVX2) samples per step, one
///     compare and one masked add per CDT entry, the sign applied as in
///     the scalar (m ^ s) - s.
///   * lift_signed (AVX2, also the AVX-512/IFMA entry): four words per
///     step, branch-free when every word of the step lies in [-q, q); a
///     step with any other word runs the portable body
///     (Modulus::from_signed) over its words. A 512-bit body timed the
///     same at N = 2^16, where the lift is bound by memory, so there is
///     none.

#include <cstddef>

#include "common/types.hpp"

namespace abc::rns {
class Modulus;
}

namespace abc::simd {

/// Word constants of the uniform rejection sampler for one modulus q >= 2.
struct UniformModulus {
  u64 q = 0;
  /// Largest multiple of q <= 2^64 - 1; words at or above it are rejected.
  u64 reject_bound = 0;
  u64 ratio = 0;     // floor(2^64 / q)
  double inv_q = 0;  // 1/q rounded to double (vector quotient estimate)

  static UniformModulus make(u64 q);

  /// r % q, exactly, for any 64-bit r: one mulhi against floor(2^64 / q)
  /// leaves r - qhat*q in [0, 2q), one conditional subtract finishes.
  u64 reduce(u64 r) const noexcept {
    const u64 t = r - mul_hi(r, ratio) * q;
    return t >= q ? t - q : t;
  }

  /// True when the double quotient estimate of the vector body is exact to
  /// within one for every 64-bit r. fl(r), fl(1/q) and their product each
  /// carry a relative error below 2^-52 (in any rounding mode), so the
  /// estimate of r/q is off by less than (2^64 / q) * 3.01 * 2^-52 < 0.76
  /// for q >= 2^14; the truncated estimate is then floor(r/q) - 1,
  /// floor(r/q) or floor(r/q) + 1, and r - qhat*q lies in [-q, 2q).
  /// q < 2^62 keeps that range inside the signed 64-bit words the
  /// corrections test.
  bool vector_ok() const noexcept {
    return q >= (u64{1} << 14) && q < (u64{1} << 62);
  }
};

/// What one uniform_reject call read and wrote.
struct RejectCount {
  std::size_t consumed = 0;  // words read
  std::size_t written = 0;   // residues written
};

/// Scans words[0, n_words) in order and writes r mod q for every word
/// r < reject_bound to out, stopping after n_out outputs or at the end of
/// the words. A call that fills out reads exactly up to the word that gave
/// the last output, so consumed is the count sample-at-a-time reads would
/// take. The words of out past the written ones, out[written, n_out), may
/// be overwritten too (the AVX-512 body stores whole compressed vectors).
/// Runs on kernels_for(m.q).
RejectCount uniform_reject(const UniformModulus& m, const u64* words,
                           std::size_t n_words, u64* out, std::size_t n_out);
RejectCount uniform_reject_portable(const UniformModulus& m, const u64* words,
                                    std::size_t n_words, u64* out,
                                    std::size_t n_out);

/// The sample keystream word r maps to under a CDT of @p count magnitude
/// entries (cdf non-decreasing, each below 2^63): bit 0 is the sign, the
/// magnitude is the number of k < count with (r >> 1) >= cdf[k].
inline i32 gaussian_from_word(const u64* cdf, std::size_t count,
                              u64 r) noexcept {
  const u64 u = r >> 1;  // 63 bits for the magnitude CDF
  // cdf is non-decreasing, so the entries u clears form a prefix and
  // their count is the first k with u < cdf[k] (or count if none).
  i32 magnitude = 0;
  for (std::size_t k = 0; k < count; ++k) {
    magnitude += static_cast<i32>(u >= cdf[k]);
  }
  // Sign from bit 0; at magnitude 0 both signs give 0.
  const i32 sign = -static_cast<i32>(r & 1);
  return (magnitude ^ sign) - sign;
}

/// out[j] = gaussian_from_word(cdf, count, words[j]) for j < n, on the
/// active tier.
void gaussian_cdt(const u64* cdf, std::size_t count, const u64* words,
                  i32* out, std::size_t n);
void gaussian_cdt_portable(const u64* cdf, std::size_t count,
                           const u64* words, i32* out, std::size_t n);

/// out[j] = q.from_signed(in[j]), or q.add(q.from_signed(in[j]), add[j])
/// when @p add is not null (add[j] < q), for j < n; runs on
/// kernels_for(q). One overload per signed word width the samplers and the
/// encoder produce.
void lift_signed(const rns::Modulus& q, u64* out, const i8* in,
                 const u64* add, std::size_t n);
void lift_signed(const rns::Modulus& q, u64* out, const i32* in,
                 const u64* add, std::size_t n);
void lift_signed(const rns::Modulus& q, u64* out, const i64* in,
                 const u64* add, std::size_t n);

/// q.value(), out of line: the SIMD tiers' TUs are compiled with wider ISA
/// flags and include no rns header, so none of Modulus's inline members is
/// ever emitted from them.
u64 modulus_value(const rns::Modulus& q) noexcept;

/// The portable tier of lift_signed (instantiated for i8, i32 and i64).
template <class I>
void lift_signed_portable(const rns::Modulus& q, u64* out, const I* in,
                          const u64* add, std::size_t n);

/// The AVX2 tier of lift_signed, which the AVX-512/IFMA table carries too
/// (kernels_avx2.cpp; instantiated for i8, i32 and i64 when the TU is
/// compiled with AVX2).
template <class I>
void lift_signed_avx2(const rns::Modulus& q, u64* out, const I* in,
                      const u64* add, std::size_t n);

}  // namespace abc::simd
