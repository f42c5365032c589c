#pragma once

// Byte-level forgeries of wire frames, shared by the corruption sweep and
// the server's registration tests.

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace abc::testing_ref {

/// Recomputes an "ABCK" header checksum over the header's current bytes
/// (FNV-1a over the field values after the magic, the compressed byte
/// mixed as a bool), so a forged header field reaches the checks behind
/// the checksum. A frame shorter than the 26-byte header is left as is.
inline void reseal_key_header(std::vector<u8>& b) {
  if (b.size() < 26) return;
  const auto le = [&b](std::size_t offset, std::size_t width) {
    u64 v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<u64>(b[offset + i]) << (8 * i);
    }
    return v;
  };
  u64 h = 0xcbf29ce484222325ull;
  for (const u64 v : {le(4, 1), le(5, 1), u64{b[6] != 0}, le(7, 2), le(9, 1),
                      le(10, 4), le(14, 8)}) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  const u64 sum = static_cast<u32>(h ^ (h >> 32));
  for (std::size_t i = 0; i < 4; ++i) {
    b[22 + i] = static_cast<u8>(sum >> (8 * i));
  }
}

/// Sets the @p bits-wide word ending @p end_bits bits into @p bytes to all
/// ones (>= every prime of the chain, since bits >= the prime width).
inline void saturate_word(std::vector<u8>& bytes, std::size_t end_bits,
                          int bits) {
  for (std::size_t b = end_bits - static_cast<std::size_t>(bits);
       b < end_bits; ++b) {
    bytes[b / 8] |= static_cast<u8>(1u << (b % 8));
  }
}

}  // namespace abc::testing_ref
