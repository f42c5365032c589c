#pragma once

/// @file serialize.hpp
/// Binary serialization of ciphertexts and keys with residues packed at the
/// datapath width (44 bits by default) — the same packing the accelerator
/// streams to LPDDR5, so a serialized object's size equals the DRAM
/// traffic the simulator accounts for.
///
/// Seed-compressed forms ship only what a holder of the context seed cannot
/// regenerate: a ciphertext drops its uniform c1 in favor of the PRNG
/// stream id, a public key drops `a`, and a key-switching key drops every
/// per-digit a_d in favor of one base stream id. At bootstrappable
/// parameter sizes this halves key upload traffic (see KeySizeReport),
/// which is exactly why the paper's client generates keys next to the
/// on-chip PRNG.
///
/// Reader contract, shared by every deserialize_*: the bytes are untrusted.
/// A truncation, a trailing byte, a length or count that does not add up,
/// or a flag byte outside {0, 1} is an InvalidArgument, and every length
/// or count is checked against the bytes left before anything is
/// allocated. A frame that parses re-serializes to exactly its own bytes:
/// every value has one encoding.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/context.hpp"
#include "ckks/keygen.hpp"

namespace abc::ckks {

/// Little-endian bit-level packer for fixed-width words.
///
/// Contract:
///  * append() and append_run() accept widths in [1, 57] and check that
///    every value fits the width. The 57-bit cap is structural: up to 7
///    bits can be pending from earlier appends, and pending + width must
///    fit the 64-bit staging word (7 + 57 = 64).
///  * Bits are emitted LSB-first; one word may straddle any number of byte
///    boundaries (a 44-bit word starting at bit offset 7 spans 7 bytes).
///    append_run(v, w) emits exactly the bytes of append(v[i], w) for each
///    i in order, at any starting bit offset.
///  * A default-constructed packer grows its own buffer; one built over a
///    span writes into it and allocates nothing — the span must be exactly
///    the packed size (finish() checks it, LogicError otherwise).
///  * finish() zero-fills the high bits of a partial final byte, returns
///    the grown buffer (empty for the span form, whose bytes are already
///    in place) and leaves the packer empty and reusable.
///  * After a throw the packer's contents are unspecified.
class BitPacker {
 public:
  BitPacker() = default;
  explicit BitPacker(std::span<u8> out) : out_(out), presized_(true) {}

  void append(u64 value, int bits);
  /// Appends every value at the same width: a 64-bit accumulator flushed
  /// with 8-byte stores and one OR-reduced width check for the whole run.
  void append_run(std::span<const u64> values, int bits);
  /// Flushes the partial byte (high bits zero) and returns the buffer.
  std::vector<u8> finish();

 private:
  /// Write cursor with room for @p bytes more bytes (grows the owned
  /// buffer; a presized span that is too short is a LogicError).
  u8* room(std::size_t bytes);

  std::vector<u8> owned_;
  std::span<u8> out_;
  std::size_t pos_ = 0;
  bool presized_ = false;
  u64 pending_ = 0;
  int pending_bits_ = 0;
};

/// Mirror of BitPacker: LSB-first fixed-width reads over a byte span.
///
/// Contract:
///  * read() and read_run() accept widths in [1, 57], matching the packer,
///    and assemble words across byte boundaries.
///  * Zero-padding bits inside the final partial byte read back as zeros;
///    only reads that need a byte past the end of the span throw
///    InvalidArgument ("truncated"). A reader that follows the writer's
///    width sequence therefore never observes padding. read_run() checks
///    the whole run against the span once, before it reads anything.
///  * The span is borrowed, not copied: it must outlive the unpacker.
class BitUnpacker {
 public:
  explicit BitUnpacker(std::span<const u8> bytes) : bytes_(bytes) {}
  u64 read(int bits);
  /// Fills @p out with consecutive words of width @p bits, as read() would
  /// one at a time, using 8-byte loads wherever a whole load fits in the
  /// span. Every word must be < @p bound: one InvalidArgument ("residue
  /// out of range") is raised after the run if any is not.
  void read_run(std::span<u64> out, int bits, u64 bound);
  std::size_t bits_consumed() const noexcept { return bit_pos_; }

 private:
  std::span<const u8> bytes_;
  std::size_t bit_pos_ = 0;
};

/// Serializes a ciphertext at the given packed coefficient width. Throws
/// if any residue does not fit the width.
std::vector<u8> serialize_ciphertext(const Ciphertext& ct,
                                     int bits_per_coeff = 44);

/// Reconstructs a ciphertext; @p ctx must match the writer's parameters.
/// A compressed c1 is regenerated from the context seed and stream id.
/// The residue body must end exactly at the end of @p bytes.
Ciphertext deserialize_ciphertext(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes);

/// Serializes a batch of ciphertexts into one upload/download envelope
/// ("ABCB" magic): a count header followed by length-prefixed
/// serialize_ciphertext frames, so items may mix levels, component counts
/// and compression. This is the wire unit a ClientSession ships per
/// request and a server returns per response — one envelope per round
/// trip instead of one transport message per ciphertext.
std::vector<u8> serialize_ciphertext_batch(std::span<const Ciphertext> cts,
                                           int bits_per_coeff = 44);

/// Reconstructs a batch envelope in input order. Each length prefix must
/// cover exactly one whole ciphertext frame, and the last frame must end
/// the envelope.
std::vector<Ciphertext> deserialize_ciphertext_batch(
    const std::shared_ptr<const CkksContext>& ctx, std::span<const u8> bytes);

// -- serving-daemon framing -------------------------------------------------

/// One request as it crosses a server transport ("ABCQ" magic): routing
/// header (tenant, request id, op byte + argument) plus an opaque payload
/// — an "ABCB" ciphertext-batch envelope for evaluate ops, an "ABCP" key
/// bundle for registration. The op byte's meaning belongs to the server
/// layer (src/server/server.hpp); this codec only carries it.
struct RequestFrame {
  u64 tenant = 0;
  u64 request_id = 0;
  u8 op = 0;
  i64 op_arg = 0;
  std::vector<u8> payload;
};

/// The matching response ("ABCS" magic): the echoed request id, a status
/// byte (server-layer meaning), a bounded human-readable error string
/// (empty on success) and the opaque response payload.
struct ResponseFrame {
  u64 request_id = 0;
  u8 status = 0;
  std::string error;
  std::vector<u8> payload;
};

std::vector<u8> serialize_request_frame(const RequestFrame& req);
std::vector<u8> serialize_response_frame(const ResponseFrame& resp);

/// Frame readers: a forged length is an InvalidArgument, never an
/// attacker-sized reserve (see the reader contract above).
RequestFrame deserialize_request_frame(std::span<const u8> bytes);
ResponseFrame deserialize_response_frame(std::span<const u8> bytes);

/// The serialized key set one tenant uploads at registration ("ABCP"
/// magic): public key + relinearization key + N Galois keys, each a
/// length-prefixed "ABCK" blob, mirroring engine::KeyBundle field by
/// field. Same hardening contract as the other envelopes.
struct KeyBundleFrames {
  std::vector<u8> public_key;
  std::vector<u8> relin_key;
  std::vector<std::vector<u8>> galois_keys;
};

std::vector<u8> serialize_key_bundle(const KeyBundleFrames& bundle);
KeyBundleFrames deserialize_key_bundle(std::span<const u8> bytes);

// -- key material -----------------------------------------------------------

/// Serializes a key-switching key. Compressed form ships the b halves plus
/// the base stream id; the a halves are regenerated on load from the
/// kind's salted stream domain at (base + digit). Before dropping them,
/// the writer regenerates every a_d from @p ctx and verifies it matches —
/// a key whose uniform halves did not come from this context's seed (or
/// whose stream metadata was tampered with) throws InvalidArgument
/// instead of silently round-tripping to a different key. Pass
/// compressed = false to materialize both halves (a reader without the
/// seed).
std::vector<u8> serialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, const KeySwitchKey& key,
    int bits_per_coeff = 44, bool compressed = true);

KeySwitchKey deserialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, std::span<const u8> bytes);

// -- server-resident compressed keys ----------------------------------------

/// A key-switching key in the form the serving daemon keeps *resident* per
/// tenant: bit-packed b halves at the prime width plus the PRNG stream
/// metadata the a halves regenerate from. Two storage savings over the
/// expanded in-memory form (2 halves x L digits x L limbs x n x 8 bytes):
///
///  * the uniform a halves are dropped entirely when they prove
///    regenerable from (seed, salted domain, base_stream_id + digit) —
///    the same proof seed-compressed serialization performs; keys whose a
///    halves are foreign fall back to packing them explicitly, so
///    registration never rejects a key the wire formats accept;
///  * the *last* gadget digit is dropped outright: hybrid key switching
///    reserves the last prime P as the special modulus, so switchable
///    ciphertexts sit at level <= L-1 and the accumulation only ever
///    reads digits 0..level-1 <= L-2 (KeySwitcher::accumulate). A digit
///    the server cannot reach is bytes it need not hold.
///
/// Packing at the prime width (max bit width over the chain, 36 for the
/// default parameters) is lossless — residues are < q — so expansion
/// reproduces the deserialized key bit for bit on every digit it keeps,
/// which is what makes cached evaluation bit-identical to eager.
struct CompressedKeySwitchKey {
  KeySwitchKey::Kind kind = KeySwitchKey::Kind::kRelin;
  u32 galois_elt = 0;
  u64 base_stream_id = 0;
  u16 limbs = 0;          // full prime-chain length L (limbs per digit)
  u16 stored_digits = 0;  // digits kept: L - 1 (all, when L == 1)
  u8 bits_per_coeff = 0;  // packing width = the chain's max prime width
  std::vector<u8> packed_b;  // digit-major, limb-major bit-packed b halves
  std::vector<u8> packed_a;  // empty when a is seed-regenerable

  /// Bytes this record keeps resident (the packed payloads).
  std::size_t resident_bytes() const noexcept {
    return packed_b.size() + packed_a.size();
  }

  /// Bytes the eagerly expanded key held in memory (both halves, all L
  /// digits, full limbs, 8-byte words) — the baseline the resident-memory
  /// reduction is measured against.
  std::size_t expanded_bytes(std::size_t n) const noexcept {
    return 2 * static_cast<std::size_t>(limbs) * limbs * n * sizeof(u64);
  }
};

/// Builds the resident record from an expanded key: packs the kept b
/// digits at the prime width and proves each kept a digit regenerable
/// (falling back to packing a when not). Throws InvalidArgument on a
/// malformed key (mismatched halves, digits != limbs).
CompressedKeySwitchKey compress_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, const KeySwitchKey& key);

/// Expands a resident record back to an evaluation-ready key: unpacks b,
/// regenerates (or unpacks) a. The result carries stored_digits gadget
/// digits — enough for every switchable level — and is bit-identical on
/// those digits to the key compress_key_switch_key consumed.
KeySwitchKey expand_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx,
    const CompressedKeySwitchKey& key);

/// Serializes a public key; compressed form ships b + stream id only,
/// with the same regenerability verification as the switching keys.
std::vector<u8> serialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx, const PublicKey& pk,
    int bits_per_coeff = 44, bool compressed = true);

PublicKey deserialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx, std::span<const u8> bytes);

/// Wire sizes of a key in both forms — the client-upload story at a
/// glance. Computed analytically from the packing layout; exact (tested
/// against the byte streams the serializers emit).
struct KeySizeReport {
  std::size_t compressed_bytes = 0;
  std::size_t full_bytes = 0;
  double ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(full_bytes) /
                     static_cast<double>(compressed_bytes);
  }
};

KeySizeReport key_switch_key_sizes(const KeySwitchKey& key,
                                   int bits_per_coeff = 44);
KeySizeReport public_key_sizes(const PublicKey& pk, int bits_per_coeff = 44);

}  // namespace abc::ckks
