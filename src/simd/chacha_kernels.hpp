#pragma once

/// @file chacha_kernels.hpp
/// Multi-block ChaCha20 (RFC 8439 block function) with portable, AVX2 and
/// AVX-512 implementations in the per-tier kernel tables (kernels.hpp).
///
/// One call computes kChachaBlocks consecutive 64-byte blocks for block
/// counters counter, counter+1, ..., counter+15 and writes them in that
/// order, so the 1 KiB it produces is exactly the concatenation of sixteen
/// chacha20_block_portable calls. The vector tiers run one block per lane:
///
///   * AVX-512: sixteen lanes of the sixteen state words, rotations on
///     vprold, one 16x16 word transpose on the way out;
///   * AVX2: the same recurrence on eight lanes, run twice (counter and
///     counter+8), rotations by 16 and 8 as byte shuffles;
///   * portable: sixteen calls of the scalar block.
///
/// Every tier emits the same bytes (tests/test_prng.cpp checks the RFC
/// vectors through each tier and cross-tier equality).
///
/// The kernels do not guard the 32-bit counter: the caller guarantees
/// counter + kChachaBlocks <= 2^32 (prng::chacha20_blocks checks it).

#include <cstddef>

#include "common/types.hpp"

namespace abc::simd {

/// Blocks per multi-block call and the bytes they fill.
inline constexpr std::size_t kChachaBlocks = 16;
inline constexpr std::size_t kChachaBytes = 64 * kChachaBlocks;

/// State words 0..3 of every block: "expand 32-byte k".
inline constexpr u32 kChachaSigma[4] = {0x61707865u, 0x3320646eu,
                                        0x79622d32u, 0x6b206574u};

/// One RFC 8439 block: key[8], counter, nonce[3] -> out[64].
void chacha20_block_portable(const u32* key, u32 counter, const u32* nonce,
                             u8* out) noexcept;

/// kChachaBlocks consecutive blocks starting at `counter` into
/// out[kChachaBytes], routed to the active kernel tier.
void chacha20_blocks(const u32* key, u32 counter, const u32* nonce,
                     u8* out) noexcept;

/// The portable tier (the portable table's entry; exposed for parity
/// tests).
void chacha20_blocks_portable(const u32* key, u32 counter, const u32* nonce,
                              u8* out) noexcept;

}  // namespace abc::simd
