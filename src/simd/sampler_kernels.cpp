#include "simd/sampler_kernels.hpp"

#include "common/check.hpp"
#include "rns/modulus.hpp"
#include "simd/kernels.hpp"

namespace abc::simd {

UniformModulus UniformModulus::make(u64 q) {
  ABC_CHECK_ARG(q >= 2, "modulus must be >= 2");
  UniformModulus m;
  m.q = q;
  // reject_bound = floor(2^64 / q) * q, i.e. wrap-free region.
  const u64 quotient = (~u64{0}) / q;  // floor((2^64 - 1) / q)
  m.reject_bound = quotient * q;
  // If q divides 2^64 exactly this under-counts by one block, which only
  // tightens the bound; correctness is unaffected.
  // q >= 2, so floor(2^64 / q) <= 2^63 fits one word.
  m.ratio = static_cast<u64>((static_cast<u128>(1) << 64) / q);
  m.inv_q = 1.0 / static_cast<double>(q);
  return m;
}

RejectCount uniform_reject_portable(const UniformModulus& m, const u64* words,
                                    std::size_t n_words, u64* out,
                                    std::size_t n_out) {
  RejectCount c;
  while (c.written < n_out && c.consumed < n_words) {
    const u64 r = words[c.consumed++];
    if (r < m.reject_bound) out[c.written++] = m.reduce(r);
  }
  return c;
}

RejectCount uniform_reject(const UniformModulus& m, const u64* words,
                           std::size_t n_words, u64* out, std::size_t n_out) {
  return kernels_for(m.q).uniform_reject(m, words, n_words, out, n_out);
}

void gaussian_cdt_portable(const u64* cdf, std::size_t count,
                           const u64* words, i32* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = gaussian_from_word(cdf, count, words[j]);
  }
}

void gaussian_cdt(const u64* cdf, std::size_t count, const u64* words,
                  i32* out, std::size_t n) {
  active_kernels().gaussian_cdt(cdf, count, words, out, n);
}

u64 modulus_value(const rns::Modulus& q) noexcept { return q.value(); }

template <class I>
void lift_signed_portable(const rns::Modulus& q, u64* out, const I* in,
                          const u64* add, std::size_t n) {
  if (add == nullptr) {
    for (std::size_t j = 0; j < n; ++j) out[j] = q.from_signed(in[j]);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = q.add(q.from_signed(in[j]), add[j]);
    }
  }
}

template void lift_signed_portable<i8>(const rns::Modulus&, u64*, const i8*,
                                       const u64*, std::size_t);
template void lift_signed_portable<i32>(const rns::Modulus&, u64*,
                                        const i32*, const u64*, std::size_t);
template void lift_signed_portable<i64>(const rns::Modulus&, u64*,
                                        const i64*, const u64*, std::size_t);

void lift_signed(const rns::Modulus& q, u64* out, const i8* in,
                 const u64* add, std::size_t n) {
  kernels_for(q.value()).lift_i8(q, out, in, add, n);
}

void lift_signed(const rns::Modulus& q, u64* out, const i32* in,
                 const u64* add, std::size_t n) {
  kernels_for(q.value()).lift_i32(q, out, in, add, n);
}

void lift_signed(const rns::Modulus& q, u64* out, const i64* in,
                 const u64* add, std::size_t n) {
  kernels_for(q.value()).lift_i64(q, out, in, add, n);
}

}  // namespace abc::simd
