/// AVX2 multi-block ChaCha20 (see chacha_kernels.hpp). Compiled with -mavx2
/// on x86-64; on other targets this TU forwards to the portable tier and
/// is never selected at runtime.
///
/// Eight blocks per pass, one per 32-bit lane: the sixteen state words are
/// sixteen __m256i, the counter word carries counter+0..7. Rotations by 16
/// and 8 are byte shuffles, by 12 and 7 shift+or. The output transpose is
/// a 4x4 word transpose inside each 128-bit half (unpack epi32/epi64)
/// followed by a 128-bit half swap (permute2x128) into block order.

#include "simd/chacha_kernels.hpp"
#include "simd/kernels_avx2.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace abc::simd {
namespace {

inline __m256i rotl16(__m256i x) noexcept {
  const __m256i k = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
                                     14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5,
                                     10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, k);
}

inline __m256i rotl8(__m256i x) noexcept {
  const __m256i k = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
                                     15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6,
                                     11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, k);
}

template <int R>
inline __m256i rotl(__m256i x) noexcept {
  return _mm256_or_si256(_mm256_slli_epi32(x, R), _mm256_srli_epi32(x, 32 - R));
}

inline void quarter_round(__m256i& a, __m256i& b, __m256i& c,
                          __m256i& d) noexcept {
  a = _mm256_add_epi32(a, b); d = rotl16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = rotl8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<7>(_mm256_xor_si256(b, c));
}

/// 4x4 word transpose inside each 128-bit half: on return r[m]'s half k
/// holds words (x0..x3)[4k+m], i.e. four consecutive words of lane 4k+m.
inline void transpose4(const __m256i x0, const __m256i x1, const __m256i x2,
                       const __m256i x3, __m256i r[4]) noexcept {
  const __m256i t0 = _mm256_unpacklo_epi32(x0, x1);
  const __m256i t1 = _mm256_unpackhi_epi32(x0, x1);
  const __m256i t2 = _mm256_unpacklo_epi32(x2, x3);
  const __m256i t3 = _mm256_unpackhi_epi32(x2, x3);
  r[0] = _mm256_unpacklo_epi64(t0, t2);
  r[1] = _mm256_unpackhi_epi64(t0, t2);
  r[2] = _mm256_unpacklo_epi64(t1, t3);
  r[3] = _mm256_unpackhi_epi64(t1, t3);
}

inline __m256i splat(u32 w) noexcept {
  return _mm256_set1_epi32(static_cast<int>(w));
}

inline void store(u8* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Eight blocks, counters counter..counter+7, into out[512].
void chacha20_8blocks(const u32* key, u32 counter, const u32* nonce,
                      u8* out) noexcept {
  // Lane i runs block counter + i; every other word is shared.
  __m256i state[16];
  for (int i = 0; i < 4; ++i) state[i] = splat(kChachaSigma[i]);
  for (int i = 0; i < 8; ++i) state[4 + i] = splat(key[i]);
  state[12] = _mm256_add_epi32(splat(counter),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int i = 0; i < 3; ++i) state[13 + i] = splat(nonce[i]);
  __m256i x[16];
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
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], state[i]);

  // a/b/c/d[m] half k = words 0-3 / 4-7 / 8-11 / 12-15 of block 4k+m.
  __m256i a[4], b[4], c[4], d[4];
  transpose4(x[0], x[1], x[2], x[3], a);
  transpose4(x[4], x[5], x[6], x[7], b);
  transpose4(x[8], x[9], x[10], x[11], c);
  transpose4(x[12], x[13], x[14], x[15], d);
  for (int m = 0; m < 4; ++m) {
    u8* lo = out + 64 * m;        // block m
    u8* hi = out + 64 * (m + 4);  // block m + 4
    store(lo, _mm256_permute2x128_si256(a[m], b[m], 0x20));
    store(lo + 32, _mm256_permute2x128_si256(c[m], d[m], 0x20));
    store(hi, _mm256_permute2x128_si256(a[m], b[m], 0x31));
    store(hi + 32, _mm256_permute2x128_si256(c[m], d[m], 0x31));
  }
}

}  // namespace

void chacha20_blocks_avx2(const u32* key, u32 counter, const u32* nonce,
                          u8* out) noexcept {
  chacha20_8blocks(key, counter, nonce, out);
  chacha20_8blocks(key, counter + 8, nonce, out + 512);
}

}  // namespace abc::simd

#else  // !__AVX2__: portable forwarder, never selected at runtime.

namespace abc::simd {

void chacha20_blocks_avx2(const u32* key, u32 counter, const u32* nonce,
                          u8* out) noexcept {
  chacha20_blocks_portable(key, counter, nonce, out);
}

}  // namespace abc::simd

#endif
