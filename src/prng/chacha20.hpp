#pragma once

/// @file chacha20.hpp
/// ChaCha20 stream generator (RFC 8439 block function).
///
/// ABC-FHE keeps only a 128-bit seed on-chip and expands all masks, errors
/// and key material with a PRNG (paper Sec. IV-B). We model that PRNG with
/// ChaCha20: the 128-bit seed is expanded into the 256-bit ChaCha key by
/// concatenating it with its byte-wise complement, and independent streams
/// (mask / error / key, per limb) are separated through the nonce words.
///
/// The stream refills 16 blocks (1 KiB) at a time through the multi-block
/// kernels in simd/chacha_kernels.hpp. The bytes and their order are the
/// plain RFC keystream (block 0, 1, 2, ... of the stream's nonce), whatever
/// the kernel tier and however reads are split across calls. The samplers
/// read the buffered words in place (read_u64) and consume only the words
/// they use, so bulk sampling copies no keystream.

#include <array>
#include <span>

#include "common/types.hpp"
#include "simd/chacha_kernels.hpp"

namespace abc::prng {

/// Raw ChaCha20 block function: fills 64 bytes of keystream for a given
/// (key, counter, nonce) triple. Exposed for test vectors.
void chacha20_block(const std::array<u32, 8>& key, u32 counter,
                    const std::array<u32, 3>& nonce, std::span<u8, 64> out);

/// Raw multi-block function: the 16 blocks counter, ..., counter+15, in
/// order. Throws abc::LogicError when counter + 16 exceeds 2^32, so a
/// stream never wraps its 32-bit block counter and replays block 0.
void chacha20_blocks(const std::array<u32, 8>& key, u64 counter,
                     const std::array<u32, 3>& nonce,
                     std::span<u8, simd::kChachaBytes> out);

/// Buffered ChaCha20 keystream with 32/64-bit and bulk reads. Every read
/// consumes the next bytes of one keystream, so any mix of calls sees the
/// same bytes as one fill_bytes over the total length.
class ChaCha20 {
 public:
  /// 128-bit seed + 96-bit stream selector.
  ChaCha20(const std::array<u8, 16>& seed, u64 stream_id, u32 domain = 0);

  void fill_bytes(std::span<u8> out);
  u64 next_u64();
  u32 next_u32();

  /// Bulk form of next_u64: out[i] is the value the i-th of out.size()
  /// next_u64() calls would return.
  void fill_u64(std::span<u64> out);

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double();

  /// Zero-copy bulk read of keystream words: calls take(words) once, where
  /// words[i] is the value the i-th next_u64() call would return and
  /// words.size() >= 1, and advances past the first take(words) of them.
  /// take must use at least one word and at most words.size(). The words
  /// are the buffered 1 KiB in place (refilled first when it is used up).
  /// When an earlier 32-bit or byte read left the stream off a word
  /// boundary, take gets one copied word per call instead, and the stream
  /// stays off the boundary for good (a refill keeps the offset), so a
  /// sample_many on such a stream runs one word per kernel call. The
  /// library's uniform and Gaussian fills each open a fresh stream
  /// (ckks/keygen.cpp) and read whole words only, so they stay aligned.
  template <class Take>
  void read_u64(Take&& take) {
    if (pos_ == simd::kChachaBytes) refill();
    if (pos_ % sizeof(u64) != 0) {
      const u64 word = next_u64();
      take(std::span<const u64>(&word, 1));
      return;
    }
    const std::span<const u64> words(
        buffer_.data() + pos_ / sizeof(u64),
        (simd::kChachaBytes - pos_) / sizeof(u64));
    const std::size_t used = take(words);
    pos_ += used * sizeof(u64);
  }

 private:
  void refill();

  static constexpr std::size_t kWords = simd::kChachaBytes / sizeof(u64);

  std::array<u32, 8> key_{};
  std::array<u32, 3> nonce_{};
  u64 counter_ = 0;  // next block; chacha20_blocks rejects it past 2^32
  // The keystream bytes, held as words so read_u64 can hand them out.
  alignas(64) std::array<u64, kWords> buffer_{};
  std::size_t pos_ = simd::kChachaBytes;  // bytes read; kChachaBytes = empty
};

}  // namespace abc::prng
