/// AVX-512 multi-block ChaCha20 (see chacha_kernels.hpp). Compiled with
/// the AVX-512 tier's flags when the toolchain accepts them; otherwise this
/// TU forwards to the AVX2 tier and is never selected at runtime. Uses
/// AVX-512F only (the tier's cpuid check covers it).
///
/// Sixteen blocks per call, one per 32-bit lane: the sixteen state words
/// are sixteen __m512i, the counter word carries counter+0..15, every
/// rotation is one vprold. The output transpose is a 4x4 word transpose
/// inside each 128-bit lane (unpack epi32/epi64) followed by a 4x4
/// transpose of 128-bit lanes (two rounds of shuffle_i32x4) into block
/// order.

#include "simd/chacha_kernels.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/kernels_avx512.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include <immintrin.h>

namespace abc::simd {
namespace {

// The lane ops below are spelled as their full-mask forms: GCC 12's
// unmasked intrinsics pass an "undefined" merge source that trips
// -Wuninitialized. The emitted instructions are the same.
constexpr __mmask16 kAll32 = 0xFFFF;
constexpr __mmask8 kAll64 = 0xFF;

template <int R>
inline __m512i rotl(__m512i x) noexcept {  // vprold
  return _mm512_mask_rol_epi32(x, kAll32, x, R);
}
inline __m512i unpacklo32(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpacklo_epi32(a, kAll32, a, b);
}
inline __m512i unpackhi32(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpackhi_epi32(a, kAll32, a, b);
}
inline __m512i unpacklo64(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpacklo_epi64(a, kAll64, a, b);
}
inline __m512i unpackhi64(__m512i a, __m512i b) noexcept {
  return _mm512_mask_unpackhi_epi64(a, kAll64, a, b);
}
template <int Imm>
inline __m512i shuffle128(__m512i a, __m512i b) noexcept {
  return _mm512_mask_shuffle_i32x4(a, kAll32, a, b, Imm);
}

inline void quarter_round(__m512i& a, __m512i& b, __m512i& c,
                          __m512i& d) noexcept {
  a = _mm512_add_epi32(a, b); d = rotl<16>(_mm512_xor_si512(d, a));
  c = _mm512_add_epi32(c, d); b = rotl<12>(_mm512_xor_si512(b, c));
  a = _mm512_add_epi32(a, b); d = rotl<8>(_mm512_xor_si512(d, a));
  c = _mm512_add_epi32(c, d); b = rotl<7>(_mm512_xor_si512(b, c));
}

/// 4x4 word transpose inside each 128-bit lane: on return r[m]'s lane k
/// holds words (x0..x3)[4k+m], i.e. four consecutive words of block 4k+m.
inline void transpose4(const __m512i x0, const __m512i x1, const __m512i x2,
                       const __m512i x3, __m512i r[4]) noexcept {
  const __m512i t0 = unpacklo32(x0, x1);
  const __m512i t1 = unpackhi32(x0, x1);
  const __m512i t2 = unpacklo32(x2, x3);
  const __m512i t3 = unpackhi32(x2, x3);
  r[0] = unpacklo64(t0, t2);
  r[1] = unpackhi64(t0, t2);
  r[2] = unpacklo64(t1, t3);
  r[3] = unpackhi64(t1, t3);
}

inline __m512i splat(u32 w) noexcept {
  return _mm512_set1_epi32(static_cast<int>(w));
}

inline void store(u8* p, __m512i v) noexcept {
  _mm512_storeu_si512(p, v);
}

}  // namespace

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out) noexcept {
  // Lane i runs block counter + i; every other word is shared.
  __m512i state[16];
  for (int i = 0; i < 4; ++i) state[i] = splat(kChachaSigma[i]);
  for (int i = 0; i < 8; ++i) state[4 + i] = splat(key[i]);
  state[12] = _mm512_add_epi32(
      splat(counter), _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                        12, 13, 14, 15));
  for (int i = 0; i < 3; ++i) state[13 + i] = splat(nonce[i]);
  __m512i x[16];
  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm512_add_epi32(x[i], state[i]);

  // a/b/c/d[m] lane k = words 0-3 / 4-7 / 8-11 / 12-15 of block 4k+m.
  __m512i a[4], b[4], c[4], d[4];
  transpose4(x[0], x[1], x[2], x[3], a);
  transpose4(x[4], x[5], x[6], x[7], b);
  transpose4(x[8], x[9], x[10], x[11], c);
  transpose4(x[12], x[13], x[14], x[15], d);
  for (int m = 0; m < 4; ++m) {
    // u0 = [a.0 a.1 b.0 b.1], u1 = [a.2 a.3 b.2 b.3], u2/u3 likewise c, d.
    const __m512i u0 = shuffle128<0x44>(a[m], b[m]);
    const __m512i u1 = shuffle128<0xEE>(a[m], b[m]);
    const __m512i u2 = shuffle128<0x44>(c[m], d[m]);
    const __m512i u3 = shuffle128<0xEE>(c[m], d[m]);
    // Block 4k+m = [a.k b.k c.k d.k].
    store(out + 64 * (m + 0), shuffle128<0x88>(u0, u2));
    store(out + 64 * (m + 4), shuffle128<0xDD>(u0, u2));
    store(out + 64 * (m + 8), shuffle128<0x88>(u1, u3));
    store(out + 64 * (m + 12), shuffle128<0xDD>(u1, u3));
  }
}

}  // namespace abc::simd

#else  // AVX-512 flags unavailable: AVX2 forwarder, never selected at
       // runtime.

namespace abc::simd {

void chacha20_blocks_avx512(const u32* key, u32 counter, const u32* nonce,
                            u8* out) noexcept {
  chacha20_blocks_avx2(key, counter, nonce, out);
}

}  // namespace abc::simd

#endif
