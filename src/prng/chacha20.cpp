#include "prng/chacha20.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::prng {
namespace {

/// The bytes of a span of words (u8 may alias any object).
template <typename T>
std::span<u8> bytes_of(std::span<T> words) {
  return {reinterpret_cast<u8*>(words.data()), words.size_bytes()};
}

}  // namespace

void chacha20_block(const std::array<u32, 8>& key, u32 counter,
                    const std::array<u32, 3>& nonce, std::span<u8, 64> out) {
  simd::chacha20_block_portable(key.data(), counter, nonce.data(),
                                out.data());
}

void chacha20_blocks(const std::array<u32, 8>& key, u64 counter,
                     const std::array<u32, 3>& nonce,
                     std::span<u8, simd::kChachaBytes> out) {
  ABC_CHECK_STATE(counter <= (u64{1} << 32) - simd::kChachaBlocks,
                  "ChaCha20 block counter exhausted (stream past 2^32 "
                  "blocks)");
  simd::chacha20_blocks(key.data(), static_cast<u32>(counter), nonce.data(),
                        out.data());
}

ChaCha20::ChaCha20(const std::array<u8, 16>& seed, u64 stream_id, u32 domain) {
  // Every keystream the stack consumes starts here, so this is where a
  // fault-injection run breaks PRNG stream setup.
  ABC_FAILPOINT(fail::points::kPrngStreamSetup);
  // Expand 128-bit seed into a 256-bit key: seed || ~seed. Any injective
  // expansion preserves the 128-bit security level of the seed.
  for (int i = 0; i < 4; ++i) {
    u32 w = 0;
    std::memcpy(&w, seed.data() + 4 * i, 4);
    key_[i] = w;
    key_[i + 4] = ~w;
  }
  nonce_[0] = domain;
  nonce_[1] = static_cast<u32>(stream_id);
  nonce_[2] = static_cast<u32>(stream_id >> 32);
}

void ChaCha20::refill() {
  chacha20_blocks(key_, counter_, nonce_,
                  std::span<u8, simd::kChachaBytes>(
                      reinterpret_cast<u8*>(buffer_.data()),
                      simd::kChachaBytes));
  counter_ += simd::kChachaBlocks;
  pos_ = 0;
}

void ChaCha20::fill_bytes(std::span<u8> out) {
  std::size_t written = 0;
  const auto* bytes = reinterpret_cast<const u8*>(buffer_.data());
  while (written < out.size()) {
    if (pos_ == simd::kChachaBytes) refill();
    const std::size_t chunk =
        std::min(simd::kChachaBytes - pos_, out.size() - written);
    std::memcpy(out.data() + written, bytes + pos_, chunk);
    pos_ += chunk;
    written += chunk;
  }
}

void ChaCha20::fill_u64(std::span<u64> out) {
  // next_u64 copies 8 keystream bytes into a word in host order, so the
  // words are exactly the keystream bytes laid over `out`.
  fill_bytes(bytes_of(out));
}

u64 ChaCha20::next_u64() {
  u64 v = 0;
  fill_u64(std::span<u64>(&v, 1));
  return v;
}

u32 ChaCha20::next_u32() {
  u32 v = 0;
  fill_bytes(bytes_of(std::span<u32>(&v, 1)));
  return v;
}

double ChaCha20::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace abc::prng
