#include "simd/chacha_kernels.hpp"

#include <array>
#include <bit>

#include "simd/kernels.hpp"

namespace abc::simd {
namespace {

inline void quarter_round(u32& a, u32& b, u32& c, u32& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

}  // namespace

void chacha20_block_portable(const u32* key, u32 counter, const u32* nonce,
                             u8* out) noexcept {
  const std::array<u32, 16> state = {
      kChachaSigma[0], kChachaSigma[1], kChachaSigma[2], kChachaSigma[3],
      key[0],          key[1],          key[2],          key[3],
      key[4],          key[5],          key[6],          key[7],
      counter,         nonce[0],        nonce[1],        nonce[2],
  };
  std::array<u32, 16> x = state;
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
  for (int i = 0; i < 16; ++i) {
    const u32 word = x[i] + state[i];
    out[4 * i + 0] = static_cast<u8>(word);
    out[4 * i + 1] = static_cast<u8>(word >> 8);
    out[4 * i + 2] = static_cast<u8>(word >> 16);
    out[4 * i + 3] = static_cast<u8>(word >> 24);
  }
}

void chacha20_blocks_portable(const u32* key, u32 counter, const u32* nonce,
                              u8* out) noexcept {
  for (u32 b = 0; b < kChachaBlocks; ++b) {
    chacha20_block_portable(key, counter + b, nonce, out + 64 * b);
  }
}

void chacha20_blocks(const u32* key, u32 counter, const u32* nonce,
                     u8* out) noexcept {
  active_kernels().chacha20_blocks(key, counter, nonce, out);
}

}  // namespace abc::simd
