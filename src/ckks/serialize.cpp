#include "ckks/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "ckks/keygen.hpp"
#include "common/bitops.hpp"
#include "common/failpoint.hpp"

namespace abc::ckks {
namespace {

constexpr u32 kMagic = 0x41424346;      // "ABCF": ciphertexts
constexpr u32 kKeyMagic = 0x4142434b;   // "ABCK": key material
constexpr u32 kBatchMagic = 0x41424342; // "ABCB": ciphertext batches

// Key headers are fixed-width: magic(32) bits(8) kind(8) compressed(8)
// limbs(16) log_n(8) galois_elt(32) stream_id(32+32) checksum(32)
// = 208 bits. The checksum covers every header field after the magic:
// compressed keys regenerate their uniform halves from the header's
// stream metadata, so a corrupted stream id or Galois element would
// otherwise silently restore *different* key material. (Payload bits are
// only guarded probabilistically by the residue range checks, the same
// contract as ciphertexts — transport-level integrity is the carrier's
// job.)
constexpr std::size_t kKeyHeaderBits = 208;

enum class KeyKind : u8 { kRelin = 0, kGalois = 1, kPublic = 2 };

u32 key_header_checksum(int bits_per_coeff, KeyKind kind, bool compressed,
                        std::size_t limbs, int log_n, u32 galois_elt,
                        u64 stream_id) {
  // FNV-1a over the field values.
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<u64>(bits_per_coeff));
  mix(static_cast<u64>(kind));
  mix(compressed ? 1 : 0);
  mix(limbs);
  mix(static_cast<u64>(log_n));
  mix(galois_elt);
  mix(stream_id);
  return static_cast<u32>(h ^ (h >> 32));
}

void check_pack_width(int bits_per_coeff) {
  ABC_CHECK_ARG(bits_per_coeff >= 1 && bits_per_coeff <= 57,
                "pack width out of range");
}

void pack_poly(BitPacker& packer, const poly::RnsPoly& p,
               int bits_per_coeff) {
  for (std::size_t l = 0; l < p.limbs(); ++l) {
    packer.append_run(p.limb(l), bits_per_coeff);
  }
}

void unpack_poly(const CkksContext& ctx, BitUnpacker& unpacker,
                 poly::RnsPoly& p, int bits_per_coeff) {
  for (std::size_t l = 0; l < p.limbs(); ++l) {
    unpacker.read_run(p.limb(l), bits_per_coeff,
                      ctx.poly_context()->modulus(l).value());
  }
}

void pack_key_header(BitPacker& packer, int bits_per_coeff, KeyKind kind,
                     bool compressed, std::size_t limbs, int log_n,
                     u32 galois_elt, u64 stream_id) {
  packer.append(kKeyMagic, 32);
  packer.append(static_cast<u64>(bits_per_coeff), 8);
  packer.append(static_cast<u64>(kind), 8);
  packer.append(compressed ? 1 : 0, 8);
  packer.append(limbs, 16);
  packer.append(static_cast<u64>(log_n), 8);
  packer.append(galois_elt, 32);
  packer.append(stream_id & 0xffffffffull, 32);
  packer.append(stream_id >> 32, 32);
  packer.append(key_header_checksum(bits_per_coeff, kind, compressed, limbs,
                                    log_n, galois_elt, stream_id),
                32);
}

struct KeyHeader {
  int bits_per_coeff = 0;
  KeyKind kind = KeyKind::kRelin;
  bool compressed = false;
  std::size_t limbs = 0;
  int log_n = 0;
  u32 galois_elt = 0;
  u64 stream_id = 0;
};

KeyHeader unpack_key_header(BitUnpacker& unpacker) {
  ABC_FAILPOINT(fail::points::kDeserializeKey);
  ABC_CHECK_ARG(unpacker.read(32) == kKeyMagic, "bad key magic");
  KeyHeader h;
  h.bits_per_coeff = static_cast<int>(unpacker.read(8));
  h.kind = static_cast<KeyKind>(unpacker.read(8));
  h.compressed = unpacker.read(8) != 0;
  h.limbs = unpacker.read(16);
  h.log_n = static_cast<int>(unpacker.read(8));
  h.galois_elt = static_cast<u32>(unpacker.read(32));
  h.stream_id = unpacker.read(32);
  h.stream_id |= unpacker.read(32) << 32;
  const u32 checksum = static_cast<u32>(unpacker.read(32));
  ABC_CHECK_ARG(
      checksum == key_header_checksum(h.bits_per_coeff, h.kind, h.compressed,
                                      h.limbs, h.log_n, h.galois_elt,
                                      h.stream_id),
      "key header checksum mismatch (corrupt buffer?)");
  return h;
}

}  // namespace

namespace {

// Little-endian 8-byte word access at any byte offset.
u64 load_le64(const u8* p) noexcept {
  u64 v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void store_le64(u8* p, u64 v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

u8* BitPacker::room(std::size_t bytes) {
  if (pos_ + bytes > out_.size()) {
    ABC_CHECK_STATE(!presized_, "presized packer span too short");
    owned_.resize(std::max(pos_ + bytes, 2 * owned_.size()));
    out_ = owned_;
  }
  return out_.data() + pos_;
}

void BitPacker::append(u64 value, int bits) {
  ABC_CHECK_ARG(bits >= 1 && bits <= 57, "pack width out of range");
  ABC_CHECK_ARG((value >> bits) == 0, "value exceeds width");
  pending_ |= value << pending_bits_;
  pending_bits_ += bits;
  const std::size_t full = static_cast<std::size_t>(pending_bits_ / 8);
  u8* dst = room(full);
  for (std::size_t k = 0; k < full; ++k) {
    dst[k] = static_cast<u8>(pending_);
    pending_ >>= 8;
  }
  pos_ += full;
  pending_bits_ -= static_cast<int>(8 * full);
}

void BitPacker::append_run(std::span<const u64> values, int bits) {
  ABC_CHECK_ARG(bits >= 1 && bits <= 57, "pack width out of range");
  const std::size_t total_bits =
      static_cast<std::size_t>(pending_bits_) +
      values.size() * static_cast<std::size_t>(bits);
  u8* dst = room(total_bits / 8);
  u64 acc = pending_;
  int acc_bits = pending_bits_;
  u64 seen = 0;  // OR of every value: one width check for the run
  for (const u64 v : values) {
    seen |= v;
    acc |= v << acc_bits;
    acc_bits += bits;
    if (acc_bits >= 64) {
      store_le64(dst, acc);
      dst += 8;
      acc_bits -= 64;
      // The acc_bits high bits of v that did not fit. acc_bits <= bits - 7
      // (at least 7 bits were pending), so the shift is in [7, 57].
      acc = v >> (bits - acc_bits);
    }
  }
  ABC_CHECK_ARG((seen >> bits) == 0, "value exceeds width");
  for (; acc_bits >= 8; acc_bits -= 8) {
    *dst++ = static_cast<u8>(acc);
    acc >>= 8;
  }
  pos_ += total_bits / 8;
  pending_ = acc;
  pending_bits_ = acc_bits;
}

std::vector<u8> BitPacker::finish() {
  if (pending_bits_ > 0) {
    *room(1) = static_cast<u8>(pending_);
    ++pos_;
    pending_ = 0;
    pending_bits_ = 0;
  }
  if (presized_) {
    ABC_CHECK_STATE(pos_ == out_.size(), "presized packer span not filled");
    pos_ = 0;
    return {};
  }
  owned_.resize(pos_);
  out_ = {};
  pos_ = 0;
  return std::exchange(owned_, {});
}

u64 BitUnpacker::read(int bits) {
  ABC_CHECK_ARG(bits >= 1 && bits <= 57, "read width out of range");
  u64 value = 0;
  int got = 0;
  while (got < bits) {
    const std::size_t byte_index = bit_pos_ / 8;
    ABC_CHECK_ARG(byte_index < bytes_.size(), "serialized buffer truncated");
    const int bit_offset = static_cast<int>(bit_pos_ % 8);
    const int take = std::min(8 - bit_offset, bits - got);
    const u64 chunk = (static_cast<u64>(bytes_[byte_index]) >> bit_offset) &
                      ((u64{1} << take) - 1);
    value |= chunk << got;
    got += take;
    bit_pos_ += static_cast<std::size_t>(take);
  }
  return value;
}

void BitUnpacker::read_run(std::span<u64> out, int bits, u64 bound) {
  ABC_CHECK_ARG(bits >= 1 && bits <= 57, "read width out of range");
  const std::size_t width = static_cast<std::size_t>(bits);
  const std::size_t span_bits = bytes_.size() * 8;
  ABC_CHECK_ARG(out.size() <= (span_bits - bit_pos_) / width,
                "serialized buffer truncated");
  // Word i starts at bit b_i = bit_pos_ + i*width; its 8-byte load at byte
  // b_i/8 stays inside the span while b_i < (size - 7) * 8. A word never
  // needs more than the one load: offset (<= 7) + width (<= 57) <= 64.
  std::size_t fast = 0;
  if (bytes_.size() >= 8 && (bytes_.size() - 7) * 8 > bit_pos_) {
    fast = std::min(out.size(),
                    ((bytes_.size() - 7) * 8 - bit_pos_ + width - 1) / width);
  }
  const u64 mask = (u64{1} << bits) - 1;
  const u8* base = bytes_.data();
  std::size_t pos = bit_pos_;
  u64 out_of_range = 0;
  for (std::size_t i = 0; i < fast; ++i, pos += width) {
    const u64 v = (load_le64(base + pos / 8) >> (pos % 8)) & mask;
    out[i] = v;
    out_of_range |= static_cast<u64>(v >= bound);
  }
  bit_pos_ = pos;
  for (std::size_t i = fast; i < out.size(); ++i) {  // final < 8 bytes
    out[i] = read(bits);
    out_of_range |= static_cast<u64>(out[i] >= bound);
  }
  ABC_CHECK_ARG(out_of_range == 0, "residue out of range (corrupt buffer?)");
}

namespace {

// Ciphertext header: magic(32) bits(8) components(8) limbs(16) log_n(8)
// compressed(8) scale(32+32), then stream_id(32+32) when c1 is compressed.
constexpr std::size_t kCiphertextHeaderBits = 144;
constexpr std::size_t kStreamIdBits = 64;

/// Exact frame size serialize_ciphertext emits for @p ct.
std::size_t ciphertext_frame_bytes(const Ciphertext& ct, int bits_per_coeff) {
  ABC_CHECK_ARG(!ct.components.empty(), "empty ciphertext");
  check_pack_width(bits_per_coeff);
  const bool compressed = ct.compressed_c1.has_value();
  std::size_t bits = kCiphertextHeaderBits + (compressed ? kStreamIdBits : 0);
  for (std::size_t comp = 0; comp < ct.size(); ++comp) {
    if (comp == 1 && compressed) continue;  // regenerable
    bits += ct.c(comp).limbs() * ct.c(comp).n() *
            static_cast<std::size_t>(bits_per_coeff);
  }
  return (bits + 7) / 8;
}

/// Packs @p ct into a span presized by ciphertext_frame_bytes.
void pack_ciphertext(std::span<u8> frame, const Ciphertext& ct,
                     int bits_per_coeff) {
  BitPacker packer(frame);
  packer.append(kMagic, 32);
  packer.append(static_cast<u64>(bits_per_coeff), 8);
  packer.append(ct.size(), 8);
  packer.append(ct.limbs(), 16);
  packer.append(static_cast<u64>(log2_exact(ct.c(0).n())), 8);
  packer.append(ct.compressed_c1.has_value() ? 1 : 0, 8);
  // Scale as raw IEEE-754 bits, split to respect the packer width cap.
  const u64 scale_bits = std::bit_cast<u64>(ct.scale);
  packer.append(scale_bits & 0xffffffffull, 32);
  packer.append(scale_bits >> 32, 32);
  if (ct.compressed_c1.has_value()) {
    packer.append(ct.compressed_c1->stream_id & 0xffffffffull, 32);
    packer.append(ct.compressed_c1->stream_id >> 32, 32);
  }
  for (std::size_t comp = 0; comp < ct.size(); ++comp) {
    if (comp == 1 && ct.compressed_c1.has_value()) continue;  // regenerable
    pack_poly(packer, ct.c(comp), bits_per_coeff);
  }
  packer.finish();
}

}  // namespace

std::vector<u8> serialize_ciphertext(const Ciphertext& ct,
                                     int bits_per_coeff) {
  std::vector<u8> out(ciphertext_frame_bytes(ct, bits_per_coeff));
  pack_ciphertext(out, ct, bits_per_coeff);
  return out;
}

Ciphertext deserialize_ciphertext(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  ABC_FAILPOINT(fail::points::kDeserializeCiphertext);
  BitUnpacker unpacker(bytes);
  ABC_CHECK_ARG(unpacker.read(32) == kMagic, "bad magic");
  const int bits_per_coeff = static_cast<int>(unpacker.read(8));
  const std::size_t components = unpacker.read(8);
  const std::size_t limbs = unpacker.read(16);
  const int log_n = static_cast<int>(unpacker.read(8));
  const bool compressed = unpacker.read(8) != 0;
  ABC_CHECK_ARG(log_n == ctx->params().log_n, "degree mismatch");
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx->max_limbs(), "limb mismatch");
  ABC_CHECK_ARG(components == 2 || components == 3, "bad component count");
  const u64 scale_lo = unpacker.read(32);
  const u64 scale_hi = unpacker.read(32);
  const double scale = std::bit_cast<double>(scale_lo | (scale_hi << 32));

  Ciphertext ct;
  ct.scale = scale;
  u64 stream_id = 0;
  if (compressed) {
    stream_id = unpacker.read(32);
    stream_id |= unpacker.read(32) << 32;
    ct.compressed_c1 = CompressedComponent{stream_id};
  }
  for (std::size_t comp = 0; comp < components; ++comp) {
    poly::RnsPoly p = ctx->make_poly(limbs, poly::Domain::kEval);
    if (comp == 1 && compressed) {
      fill_uniform_eval(*ctx, p, PrngDomain::kSymmetricA, stream_id);
    } else {
      unpack_poly(*ctx, unpacker, p, bits_per_coeff);
    }
    ct.components.push_back(std::move(p));
  }
  return ct;
}

std::vector<u8> serialize_ciphertext_batch(std::span<const Ciphertext> cts,
                                           int bits_per_coeff) {
  // Byte-aligned container format (magic, count, then per item a 32-bit
  // length + the serialize_ciphertext frame), little-endian. Frames stay
  // byte-aligned so a receiver can hand each one to
  // deserialize_ciphertext without re-packing. Frame sizes are exact, so
  // the envelope is allocated once and every frame is packed in place;
  // frames are independent, so packing fans out across the context's
  // backend.
  const auto check_u32 = [](u64 v) {
    ABC_CHECK_ARG((v >> 32) == 0, "batch field exceeds 32 bits");
  };
  check_u32(cts.size());
  std::vector<std::size_t> frame_bytes(cts.size());
  std::size_t total = 8;
  for (std::size_t i = 0; i < cts.size(); ++i) {
    frame_bytes[i] = ciphertext_frame_bytes(cts[i], bits_per_coeff);
    check_u32(frame_bytes[i]);
    total += 4 + frame_bytes[i];
  }
  std::vector<u8> out(total);
  std::vector<std::size_t> offsets(cts.size());
  std::size_t pos = 0;
  const auto put_u32 = [&out, &pos](u64 v) {
    for (int b = 0; b < 4; ++b) out[pos++] = static_cast<u8>(v >> (8 * b));
  };
  put_u32(kBatchMagic);
  put_u32(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    put_u32(frame_bytes[i]);
    offsets[i] = pos;
    pos += frame_bytes[i];
  }
  if (!cts.empty()) {
    cts.front().c(0).context().backend().parallel_for(
        cts.size(), [&](std::size_t i, std::size_t) {
          pack_ciphertext(std::span<u8>(out).subspan(offsets[i],
                                                     frame_bytes[i]),
                          cts[i], bits_per_coeff);
        });
  }
  return out;
}

std::vector<Ciphertext> deserialize_ciphertext_batch(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_FAILPOINT(fail::points::kDeserializeBatch);
  std::size_t pos = 0;
  const auto get_u32 = [&bytes, &pos]() -> u64 {
    ABC_CHECK_ARG(pos + 4 <= bytes.size(), "batch envelope truncated");
    u64 v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<u64>(bytes[pos++]) << (8 * b);
    }
    return v;
  };
  ABC_CHECK_ARG(get_u32() == kBatchMagic, "bad batch magic");
  const u64 count = get_u32();
  // Every frame needs at least its 4-byte length prefix, so an untrusted
  // count beyond that is a truncated/corrupt envelope — reject it before
  // reserving attacker-controlled amounts of memory.
  ABC_CHECK_ARG(count <= (bytes.size() - pos) / 4,
                "batch envelope truncated");
  // Cheap serial pre-scan of the frame table, then the per-frame work
  // (bit-unpacking every residue + regenerating compressed c1 halves)
  // fans out across the backend — frames are independent and land in
  // input order, so the result is bit-identical at any worker count.
  std::vector<std::span<const u8>> frames;
  frames.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    const u64 length = get_u32();
    ABC_CHECK_ARG(pos + length <= bytes.size(), "batch envelope truncated");
    frames.push_back(bytes.subspan(pos, length));
    pos += length;
  }
  ABC_CHECK_ARG(pos == bytes.size(),
                "trailing bytes after the last batch frame");
  std::vector<Ciphertext> out(count);
  ctx->backend().parallel_for(count, [&](std::size_t i, std::size_t) {
    out[i] = deserialize_ciphertext(ctx, frames[i]);
  });
  return out;
}

namespace {

PrngDomain ksk_salted_a_domain(KeySwitchKey::Kind kind, u32 galois_elt) {
  return static_cast<PrngDomain>(
      ksk_stream_domain(ksk_a_domain(kind), galois_elt));
}

PrngDomain ksk_salted_a_domain(const KeySwitchKey& key) {
  return ksk_salted_a_domain(key.kind, key.galois_elt);
}

/// Packing width of the context's prime chain: the widest prime's bit
/// width. Lossless for every residue (all are < their prime), and tighter
/// than any wire bits_per_coeff a client chose.
int chain_prime_bits(const CkksContext& ctx) {
  int bits = 0;
  for (std::size_t l = 0; l < ctx.max_limbs(); ++l) {
    const int w = static_cast<int>(
        std::bit_width(ctx.poly_context()->modulus(l).value()));
    bits = std::max(bits, w);
  }
  return bits;
}

/// The compressed forms drop the uniform halves, so the writer must prove
/// they are regenerable first — otherwise a key whose uniform halves did
/// not come from this context's seed (or whose in-memory stream metadata
/// was mangled) would serialize fine and restore as different key
/// material. @p expect is caller-provided scratch so a multi-digit key
/// pays one allocation, not one per digit.
void check_regenerable(const CkksContext& ctx, const poly::RnsPoly& a,
                       PrngDomain domain, u64 stream_id,
                       poly::RnsPoly& expect) {
  fill_uniform_eval(ctx, expect, domain, stream_id);
  for (std::size_t l = 0; l < a.limbs(); ++l) {
    const std::span<const u64> got = a.limb(l);
    const std::span<const u64> want = expect.limb(l);
    ABC_CHECK_ARG(std::equal(got.begin(), got.end(), want.begin()),
                  "uniform half not regenerable from (seed, stream id); "
                  "serialize with compressed = false");
  }
}

}  // namespace

std::vector<u8> serialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, const KeySwitchKey& key,
    int bits_per_coeff, bool compressed) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_CHECK_ARG(!key.b.empty(), "empty key-switching key");
  ABC_CHECK_ARG(key.a.size() == key.b.size(),
                "mismatched key-switching key halves");
  // The wire header records one limb count and the reader relies on it
  // for every digit; the RNS gadget additionally fixes digits == limbs.
  // A mismatched polynomial would shift every later word in the packed
  // stream, which the probabilistic residue checks cannot reliably catch.
  ABC_CHECK_ARG(key.digits() == key.b.front().limbs(),
                "gadget digit count must equal the limb count");
  for (std::size_t d = 0; d < key.digits(); ++d) {
    ABC_CHECK_ARG(key.b[d].limbs() == key.digits() &&
                      key.a[d].limbs() == key.digits(),
                  "all key digits must carry the full limb count");
  }
  if (compressed) {
    const PrngDomain domain = ksk_salted_a_domain(key);
    poly::RnsPoly expect =
        ctx->make_poly(key.a.front().limbs(), poly::Domain::kEval);
    for (std::size_t d = 0; d < key.digits(); ++d) {
      check_regenerable(*ctx, key.a[d], domain, key.base_stream_id + d,
                        expect);
    }
  }
  check_pack_width(bits_per_coeff);
  const KeySizeReport sizes = key_switch_key_sizes(key, bits_per_coeff);
  std::vector<u8> out(compressed ? sizes.compressed_bytes : sizes.full_bytes);
  const poly::RnsPoly& first = key.b.front();
  BitPacker packer(out);
  pack_key_header(packer, bits_per_coeff,
                  key.kind == KeySwitchKey::Kind::kRelin ? KeyKind::kRelin
                                                         : KeyKind::kGalois,
                  compressed, first.limbs(),
                  log2_exact(first.n()), key.galois_elt,
                  key.base_stream_id);
  for (const poly::RnsPoly& b : key.b) pack_poly(packer, b, bits_per_coeff);
  if (!compressed) {
    for (const poly::RnsPoly& a : key.a) pack_poly(packer, a, bits_per_coeff);
  }
  packer.finish();
  return out;
}

KeySwitchKey deserialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  BitUnpacker unpacker(bytes);
  const KeyHeader h = unpack_key_header(unpacker);
  ABC_CHECK_ARG(h.kind == KeyKind::kRelin || h.kind == KeyKind::kGalois,
                "not a key-switching key");
  ABC_CHECK_ARG(h.log_n == ctx->params().log_n, "degree mismatch");
  ABC_CHECK_ARG(h.limbs == ctx->max_limbs(),
                "key-switching keys carry full limbs");

  KeySwitchKey key;
  key.kind = h.kind == KeyKind::kRelin ? KeySwitchKey::Kind::kRelin
                                       : KeySwitchKey::Kind::kGalois;
  key.galois_elt = h.galois_elt;
  key.base_stream_id = h.stream_id;
  if (key.kind == KeySwitchKey::Kind::kGalois) {
    ABC_CHECK_ARG((h.galois_elt & 1u) != 0 && h.galois_elt < 2 * ctx->n(),
                  "invalid galois element");
  } else {
    ABC_CHECK_ARG(h.galois_elt == 0, "relin key with galois element");
  }
  key.b.reserve(h.limbs);
  key.a.reserve(h.limbs);
  for (std::size_t d = 0; d < h.limbs; ++d) {
    poly::RnsPoly b = ctx->make_poly(h.limbs, poly::Domain::kEval);
    unpack_poly(*ctx, unpacker, b, h.bits_per_coeff);
    key.b.push_back(std::move(b));
  }
  for (std::size_t d = 0; d < h.limbs; ++d) {
    poly::RnsPoly a = ctx->make_poly(h.limbs, poly::Domain::kEval);
    if (h.compressed) {
      fill_uniform_eval(*ctx, a, ksk_salted_a_domain(key),
                        h.stream_id + d);
    } else {
      unpack_poly(*ctx, unpacker, a, h.bits_per_coeff);
    }
    key.a.push_back(std::move(a));
  }
  return key;
}

CompressedKeySwitchKey compress_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, const KeySwitchKey& key) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_CHECK_ARG(!key.b.empty(), "empty key-switching key");
  ABC_CHECK_ARG(key.a.size() == key.b.size(),
                "mismatched key-switching key halves");
  const std::size_t limbs = ctx->max_limbs();
  ABC_CHECK_ARG(key.digits() == limbs,
                "gadget digit count must equal the limb count");
  for (std::size_t d = 0; d < key.digits(); ++d) {
    ABC_CHECK_ARG(key.b[d].limbs() == limbs && key.a[d].limbs() == limbs,
                  "all key digits must carry the full limb count");
  }
  const int bits = chain_prime_bits(*ctx);

  CompressedKeySwitchKey out;
  out.kind = key.kind;
  out.galois_elt = key.galois_elt;
  out.base_stream_id = key.base_stream_id;
  out.limbs = static_cast<u16>(limbs);
  // The hybrid accumulation never reads digit L-1 (levels stop at L-1 and
  // digit indices at level-1), so the resident form drops it. A 1-limb
  // chain cannot key-switch at all; keep its single digit for shape.
  out.stored_digits =
      static_cast<u16>(key.digits() > 1 ? key.digits() - 1 : key.digits());
  out.bits_per_coeff = static_cast<u8>(bits);

  // Every digit is limbs * n words at the prime width, packed back to
  // back with no header.
  const std::size_t digit_bits =
      limbs * ctx->n() * static_cast<std::size_t>(bits);
  const std::size_t half_bytes = (out.stored_digits * digit_bits + 7) / 8;
  out.packed_b.resize(half_bytes);
  BitPacker packer(out.packed_b);
  for (std::size_t d = 0; d < out.stored_digits; ++d) {
    pack_poly(packer, key.b[d], bits);
  }
  packer.finish();

  // Prove the kept a digits regenerable from the stream metadata; a key
  // whose uniform halves are foreign keeps them packed instead (bigger,
  // but never silently expands to different key material).
  const PrngDomain domain = ksk_salted_a_domain(key);
  poly::RnsPoly expect = ctx->make_poly(limbs, poly::Domain::kEval);
  bool regenerable = true;
  for (std::size_t d = 0; d < out.stored_digits && regenerable; ++d) {
    fill_uniform_eval(*ctx, expect, domain, key.base_stream_id + d);
    for (std::size_t l = 0; l < limbs && regenerable; ++l) {
      const std::span<const u64> got = key.a[d].limb(l);
      const std::span<const u64> want = expect.limb(l);
      regenerable = std::equal(got.begin(), got.end(), want.begin());
    }
  }
  if (!regenerable) {
    out.packed_a.resize(half_bytes);
    BitPacker pa(out.packed_a);
    for (std::size_t d = 0; d < out.stored_digits; ++d) {
      pack_poly(pa, key.a[d], bits);
    }
    pa.finish();
  }
  return out;
}

KeySwitchKey expand_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx,
    const CompressedKeySwitchKey& rec) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_CHECK_ARG(rec.limbs == ctx->max_limbs(),
                "compressed key limb count does not match the context");
  ABC_CHECK_ARG(rec.stored_digits >= 1 && rec.stored_digits <= rec.limbs,
                "compressed key digit count out of range");
  ABC_CHECK_ARG(rec.bits_per_coeff >= 1 && rec.bits_per_coeff <= 57,
                "compressed key packing width out of range");
  if (rec.kind == KeySwitchKey::Kind::kGalois) {
    ABC_CHECK_ARG((rec.galois_elt & 1u) != 0 &&
                      rec.galois_elt < 2 * ctx->n(),
                  "invalid galois element");
  } else {
    ABC_CHECK_ARG(rec.galois_elt == 0, "relin key with galois element");
  }

  KeySwitchKey key;
  key.kind = rec.kind;
  key.galois_elt = rec.galois_elt;
  key.base_stream_id = rec.base_stream_id;
  key.b.reserve(rec.stored_digits);
  key.a.reserve(rec.stored_digits);
  const int bits = rec.bits_per_coeff;
  BitUnpacker ub(rec.packed_b);
  for (std::size_t d = 0; d < rec.stored_digits; ++d) {
    poly::RnsPoly b = ctx->make_poly(rec.limbs, poly::Domain::kEval);
    unpack_poly(*ctx, ub, b, bits);
    key.b.push_back(std::move(b));
  }
  if (rec.packed_a.empty()) {
    // The exact call deserialize_key_switch_key makes for a compressed
    // wire blob — the regenerated halves are bit-identical by definition.
    const PrngDomain domain = ksk_salted_a_domain(rec.kind, rec.galois_elt);
    for (std::size_t d = 0; d < rec.stored_digits; ++d) {
      poly::RnsPoly a = ctx->make_poly(rec.limbs, poly::Domain::kEval);
      fill_uniform_eval(*ctx, a, domain, rec.base_stream_id + d);
      key.a.push_back(std::move(a));
    }
  } else {
    BitUnpacker ua(rec.packed_a);
    for (std::size_t d = 0; d < rec.stored_digits; ++d) {
      poly::RnsPoly a = ctx->make_poly(rec.limbs, poly::Domain::kEval);
      unpack_poly(*ctx, ua, a, bits);
      key.a.push_back(std::move(a));
    }
  }
  return key;
}

std::vector<u8> serialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx, const PublicKey& pk,
    int bits_per_coeff, bool compressed) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_CHECK_ARG(pk.a.limbs() == pk.b.limbs(),
                "public key halves must carry the same limb count");
  if (compressed) {
    poly::RnsPoly expect = ctx->make_poly(pk.a.limbs(), poly::Domain::kEval);
    check_regenerable(*ctx, pk.a, PrngDomain::kPublicA, pk.stream_id,
                      expect);
  }
  check_pack_width(bits_per_coeff);
  const KeySizeReport sizes = public_key_sizes(pk, bits_per_coeff);
  std::vector<u8> out(compressed ? sizes.compressed_bytes : sizes.full_bytes);
  BitPacker packer(out);
  pack_key_header(packer, bits_per_coeff, KeyKind::kPublic, compressed,
                  pk.b.limbs(), log2_exact(pk.b.n()), 0, pk.stream_id);
  pack_poly(packer, pk.b, bits_per_coeff);
  if (!compressed) pack_poly(packer, pk.a, bits_per_coeff);
  packer.finish();
  return out;
}

PublicKey deserialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  BitUnpacker unpacker(bytes);
  const KeyHeader h = unpack_key_header(unpacker);
  ABC_CHECK_ARG(h.kind == KeyKind::kPublic, "not a public key");
  ABC_CHECK_ARG(h.galois_elt == 0, "public key with galois element");
  ABC_CHECK_ARG(h.log_n == ctx->params().log_n, "degree mismatch");
  ABC_CHECK_ARG(h.limbs == ctx->max_limbs(), "public keys carry full limbs");

  poly::RnsPoly b = ctx->make_poly(h.limbs, poly::Domain::kEval);
  unpack_poly(*ctx, unpacker, b, h.bits_per_coeff);
  poly::RnsPoly a = ctx->make_poly(h.limbs, poly::Domain::kEval);
  if (h.compressed) {
    fill_uniform_eval(*ctx, a, PrngDomain::kPublicA, h.stream_id);
  } else {
    unpack_poly(*ctx, unpacker, a, h.bits_per_coeff);
  }
  return PublicKey{std::move(b), std::move(a), h.stream_id};
}

KeySizeReport key_switch_key_sizes(const KeySwitchKey& key,
                                   int bits_per_coeff) {
  ABC_CHECK_ARG(!key.b.empty(), "empty key-switching key");
  const std::size_t poly_bits =
      key.b.front().limbs() * key.b.front().n() *
      static_cast<std::size_t>(bits_per_coeff);
  const std::size_t half = key.digits() * poly_bits;
  return KeySizeReport{(kKeyHeaderBits + half + 7) / 8,
                       (kKeyHeaderBits + 2 * half + 7) / 8};
}

namespace {

constexpr u32 kRequestMagic = 0x41424351;   // "ABCQ": server requests
constexpr u32 kResponseMagic = 0x41424353;  // "ABCS": server responses
constexpr u32 kBundleMagic = 0x41424350;    // "ABCP": tenant key bundles

// Responses carry a human-readable error string; bound it so a hostile
// frame cannot make the reader allocate more than the frame itself holds
// plus this ceiling.
constexpr std::size_t kMaxErrorBytes = 64 * 1024;

// Little-endian byte-aligned writer/reader shared by the framing codecs.
// Every length field is validated against the remaining span before any
// allocation — the same untrusted-envelope discipline as "ABCB".
struct ByteWriter {
  std::vector<u8> out;
  void put_u8(u8 v) { out.push_back(v); }
  void put_u32(u64 v) {
    ABC_CHECK_ARG((v >> 32) == 0, "frame field exceeds 32 bits");
    for (int b = 0; b < 4; ++b) out.push_back(static_cast<u8>(v >> (8 * b)));
  }
  void put_u64(u64 v) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<u8>(v >> (8 * b)));
  }
  void put_bytes(std::span<const u8> bytes) {
    put_u32(bytes.size());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
};

struct ByteReader {
  std::span<const u8> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return bytes.size() - pos; }
  u8 get_u8() {
    ABC_CHECK_ARG(pos + 1 <= bytes.size(), "frame truncated");
    return bytes[pos++];
  }
  u64 get_u32() {
    ABC_CHECK_ARG(pos + 4 <= bytes.size(), "frame truncated");
    u64 v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<u64>(bytes[pos++]) << (8 * b);
    return v;
  }
  u64 get_u64() {
    ABC_CHECK_ARG(pos + 8 <= bytes.size(), "frame truncated");
    u64 v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<u64>(bytes[pos++]) << (8 * b);
    return v;
  }
  std::span<const u8> get_bytes() {
    const u64 length = get_u32();
    ABC_CHECK_ARG(length <= remaining(), "frame length field overruns the frame");
    const std::span<const u8> view = bytes.subspan(pos, length);
    pos += length;
    return view;
  }
  void expect_end() const {
    ABC_CHECK_ARG(pos == bytes.size(), "trailing bytes after the frame");
  }
};

}  // namespace

std::vector<u8> serialize_request_frame(const RequestFrame& req) {
  ByteWriter w;
  w.put_u32(kRequestMagic);
  w.put_u64(req.tenant);
  w.put_u64(req.request_id);
  w.put_u8(req.op);
  w.put_u64(static_cast<u64>(req.op_arg));
  w.put_bytes(req.payload);
  return std::move(w.out);
}

RequestFrame deserialize_request_frame(std::span<const u8> bytes) {
  ByteReader r{bytes};
  ABC_CHECK_ARG(r.get_u32() == kRequestMagic, "bad request magic");
  RequestFrame req;
  req.tenant = r.get_u64();
  req.request_id = r.get_u64();
  req.op = r.get_u8();
  req.op_arg = static_cast<i64>(r.get_u64());
  const std::span<const u8> payload = r.get_bytes();
  r.expect_end();
  req.payload.assign(payload.begin(), payload.end());
  return req;
}

std::vector<u8> serialize_response_frame(const ResponseFrame& resp) {
  ABC_CHECK_ARG(resp.error.size() <= kMaxErrorBytes,
                "response error string exceeds the wire bound");
  ByteWriter w;
  w.put_u32(kResponseMagic);
  w.put_u64(resp.request_id);
  w.put_u8(resp.status);
  w.put_bytes(std::span<const u8>(
      reinterpret_cast<const u8*>(resp.error.data()), resp.error.size()));
  w.put_bytes(resp.payload);
  return std::move(w.out);
}

ResponseFrame deserialize_response_frame(std::span<const u8> bytes) {
  ByteReader r{bytes};
  ABC_CHECK_ARG(r.get_u32() == kResponseMagic, "bad response magic");
  ResponseFrame resp;
  resp.request_id = r.get_u64();
  resp.status = r.get_u8();
  const std::span<const u8> error = r.get_bytes();
  ABC_CHECK_ARG(error.size() <= kMaxErrorBytes,
                "response error string exceeds the wire bound");
  const std::span<const u8> payload = r.get_bytes();
  r.expect_end();
  resp.error.assign(error.begin(), error.end());
  resp.payload.assign(payload.begin(), payload.end());
  return resp;
}

std::vector<u8> serialize_key_bundle(const KeyBundleFrames& bundle) {
  ByteWriter w;
  w.put_u32(kBundleMagic);
  w.put_u32(bundle.galois_keys.size());
  w.put_bytes(bundle.public_key);
  w.put_bytes(bundle.relin_key);
  for (const std::vector<u8>& gk : bundle.galois_keys) w.put_bytes(gk);
  return std::move(w.out);
}

KeyBundleFrames deserialize_key_bundle(std::span<const u8> bytes) {
  ByteReader r{bytes};
  ABC_CHECK_ARG(r.get_u32() == kBundleMagic, "bad key-bundle magic");
  const u64 count = r.get_u32();
  // Every Galois blob needs at least its 4-byte length prefix, so an
  // untrusted count beyond that is corrupt — reject before reserving.
  ABC_CHECK_ARG(count <= r.remaining() / 4, "key-bundle envelope truncated");
  KeyBundleFrames bundle;
  const std::span<const u8> pk = r.get_bytes();
  const std::span<const u8> rlk = r.get_bytes();
  bundle.public_key.assign(pk.begin(), pk.end());
  bundle.relin_key.assign(rlk.begin(), rlk.end());
  bundle.galois_keys.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    const std::span<const u8> gk = r.get_bytes();
    bundle.galois_keys.emplace_back(gk.begin(), gk.end());
  }
  r.expect_end();
  return bundle;
}

KeySizeReport public_key_sizes(const PublicKey& pk, int bits_per_coeff) {
  const std::size_t poly_bits =
      pk.b.limbs() * pk.b.n() * static_cast<std::size_t>(bits_per_coeff);
  return KeySizeReport{(kKeyHeaderBits + poly_bits + 7) / 8,
                       (kKeyHeaderBits + 2 * poly_bits + 7) / 8};
}

}  // namespace abc::ckks
