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

constexpr u32 kMagic = 0x41424346;          // "ABCF": ciphertexts
constexpr u32 kKeyMagic = 0x4142434b;       // "ABCK": key material
constexpr u32 kBatchMagic = 0x41424342;     // "ABCB": ciphertext batches
constexpr u32 kRequestMagic = 0x41424351;   // "ABCQ": server requests
constexpr u32 kResponseMagic = 0x41424353;  // "ABCS": server responses
constexpr u32 kBundleMagic = 0x41424350;    // "ABCP": tenant key bundles

// Responses carry a human-readable error string; bound it so a hostile
// frame cannot make the reader allocate more than the frame itself holds
// plus this ceiling.
constexpr std::size_t kMaxErrorBytes = 64 * 1024;

/// The one byte-level reader of every envelope: a span and a cursor over
/// untrusted bytes, fields little-endian and byte-aligned. Every read
/// checks the bytes left before it touches them, and every length or count
/// is checked against them before the caller allocates, so a truncated or
/// forged frame is an InvalidArgument by construction.
class WireReader {
 public:
  explicit WireReader(std::span<const u8> bytes) : bytes_(bytes) {}

  template <class T>
  T get() {
    const std::span<const u8> b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
  }

  /// A one-byte flag: 0 and 1 are its only encodings.
  bool flag() {
    const u8 v = get<u8>();
    ABC_CHECK_ARG(v <= 1, "flag byte outside {0, 1}");
    return v == 1;
  }

  /// A u32 length prefix and the bytes it covers.
  std::span<const u8> bytes() { return take(get<u32>()); }

  /// A u32 item count, checked before the caller reserves: every item
  /// needs at least @p min_bytes_each of the bytes left.
  std::size_t count(std::size_t min_bytes_each) {
    const u32 n = get<u32>();
    ABC_CHECK_ARG(n <= remaining() / min_bytes_each,
                  "count field exceeds the bytes left");
    return n;
  }

  /// The unread bytes, for a BitUnpacker body; the cursor does not move.
  std::span<const u8> rest() const { return bytes_.subspan(pos_); }

  /// Moves past the @p bits bits a BitUnpacker read from rest(). Residue
  /// bodies are whole bytes (a limb packs n >= 16 words), so there are no
  /// padding bits to check.
  void skip_bits(std::size_t bits) { take((bits + 7) / 8); }

  void expect_end() const {
    ABC_CHECK_ARG(pos_ == bytes_.size(), "trailing bytes after the frame");
  }

 private:
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::span<const u8> take(std::size_t n) {
    ABC_CHECK_ARG(n <= remaining(), "frame truncated");
    const std::span<const u8> view = bytes_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::span<const u8> bytes_;
  std::size_t pos_ = 0;
};

/// The writer mirror: fills a span presized to the exact frame size, so a
/// frame is allocated once and a size miscount is a LogicError.
class WireWriter {
 public:
  explicit WireWriter(std::span<u8> out) : out_(out) {}

  /// Writes @p v as a little-endian T; a wider value is InvalidArgument.
  template <class T>
  void put(u64 v) {
    if constexpr (sizeof(T) < sizeof(u64)) {
      ABC_CHECK_ARG((v >> (8 * sizeof(T))) == 0,
                    "wire field exceeds its width");
    }
    const std::span<u8> b = take(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<u8>(v >> (8 * i));
    }
  }

  /// A u32 length prefix, then @p n bytes claimed for the caller to fill.
  std::span<u8> claim(std::size_t n) {
    put<u32>(n);
    return take(n);
  }

  void put_bytes(std::span<const u8> bytes) {
    std::copy(bytes.begin(), bytes.end(), claim(bytes.size()).begin());
  }

  /// Claims every unwritten byte for a BitPacker body (a packer over a
  /// presized span checks in finish() that it filled it exactly).
  std::span<u8> body() { return take(out_.size() - pos_); }

  void finish() const {
    ABC_CHECK_STATE(pos_ == out_.size(), "presized frame not filled");
  }

 private:
  std::span<u8> take(std::size_t n) {
    ABC_CHECK_STATE(n <= out_.size() - pos_, "presized frame too short");
    const std::span<u8> view = out_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::span<u8> out_;
  std::size_t pos_ = 0;
};

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

// Ciphertext header: magic u32, bits u8, components u8, limbs u16, log_n
// u8, compressed u8, scale u64 (raw IEEE-754 bits) = 18 bytes, then the
// stream id u64 when c1 is compressed.
constexpr std::size_t kCiphertextHeaderBytes = 18;

/// Exact frame size serialize_ciphertext emits for @p ct.
std::size_t ciphertext_frame_bytes(const Ciphertext& ct, int bits_per_coeff) {
  ABC_CHECK_ARG(!ct.components.empty(), "empty ciphertext");
  check_pack_width(bits_per_coeff);
  const bool compressed = ct.compressed_c1.has_value();
  std::size_t bits = 0;
  for (std::size_t comp = 0; comp < ct.size(); ++comp) {
    if (comp == 1 && compressed) continue;  // regenerable
    bits += ct.c(comp).limbs() * ct.c(comp).n() *
            static_cast<std::size_t>(bits_per_coeff);
  }
  return kCiphertextHeaderBytes + (compressed ? sizeof(u64) : 0) +
         (bits + 7) / 8;
}

/// Packs @p ct into a span presized by ciphertext_frame_bytes.
void pack_ciphertext(std::span<u8> frame, const Ciphertext& ct,
                     int bits_per_coeff) {
  WireWriter w(frame);
  w.put<u32>(kMagic);
  w.put<u8>(static_cast<u64>(bits_per_coeff));
  w.put<u8>(ct.size());
  w.put<u16>(ct.limbs());
  w.put<u8>(static_cast<u64>(log2_exact(ct.c(0).n())));
  w.put<u8>(ct.compressed_c1.has_value());
  w.put<u64>(std::bit_cast<u64>(ct.scale));
  if (ct.compressed_c1.has_value()) w.put<u64>(ct.compressed_c1->stream_id);
  BitPacker packer(w.body());
  for (std::size_t comp = 0; comp < ct.size(); ++comp) {
    if (comp == 1 && ct.compressed_c1.has_value()) continue;  // regenerable
    pack_poly(packer, ct.c(comp), bits_per_coeff);
  }
  packer.finish();
}

// Key headers: magic u32, bits u8, kind u8, compressed u8, limbs u16,
// log_n u8, galois_elt u32, stream_id u64, checksum u32 = 26 bytes. The
// compressed byte is always 1: every key frame is seed-compressed, and a
// reader rejects 0. The checksum covers every header field after the
// magic: keys regenerate their uniform halves from the header's stream
// metadata, so a corrupted stream id or Galois element would otherwise
// silently restore *different* key material. (Payload bits are only
// guarded probabilistically by the residue range checks, the same contract
// as ciphertexts — transport-level integrity is the carrier's job.)
constexpr std::size_t kKeyHeaderBytes = 26;

// The wire kind byte; the switching kinds share KeySwitchKey::Kind's values.
enum class KeyKind : u8 { kRelin = 0, kGalois = 1, kPublic = 2 };
static_assert(
    static_cast<KeyKind>(KeySwitchKey::Kind::kRelin) == KeyKind::kRelin &&
    static_cast<KeyKind>(KeySwitchKey::Kind::kGalois) == KeyKind::kGalois);

struct KeyHeader {
  int bits_per_coeff = 0;
  KeyKind kind = KeyKind::kRelin;
  std::size_t limbs = 0;
  int log_n = 0;
  u32 galois_elt = 0;
  u64 stream_id = 0;

  u32 checksum() const {
    u64 h = 0xcbf29ce484222325ull;  // FNV-1a over the field values
    for (const u64 v : {static_cast<u64>(bits_per_coeff),
                        static_cast<u64>(kind), u64{1}, u64{limbs},
                        static_cast<u64>(log_n), u64{galois_elt}, stream_id}) {
      h ^= v;
      h *= 0x100000001b3ull;
    }
    return static_cast<u32>(h ^ (h >> 32));
  }
};

/// Reads a key header and checks it against @p ctx: keys are
/// seed-compressed and carry full limbs.
KeyHeader read_key_header(WireReader& r, const CkksContext& ctx) {
  ABC_FAILPOINT(fail::points::kDeserializeKey);
  ABC_CHECK_ARG(r.get<u32>() == kKeyMagic, "bad key magic");
  KeyHeader h;
  h.bits_per_coeff = r.get<u8>();
  h.kind = static_cast<KeyKind>(r.get<u8>());
  ABC_CHECK_ARG(r.flag(), "key frame is not seed-compressed");
  h.limbs = r.get<u16>();
  h.log_n = r.get<u8>();
  h.galois_elt = r.get<u32>();
  h.stream_id = r.get<u64>();
  ABC_CHECK_ARG(r.get<u32>() == h.checksum(),
                "key header checksum mismatch (corrupt buffer?)");
  ABC_CHECK_ARG(h.log_n == ctx.params().log_n, "degree mismatch");
  ABC_CHECK_ARG(h.limbs == ctx.max_limbs(), "keys carry full limbs");
  return h;
}

/// A switching key's kind and Galois element: relin keys carry element 0,
/// Galois keys an odd element below 2N.
void check_switch_kind(const CkksContext& ctx, KeyKind kind, u32 galois_elt) {
  ABC_CHECK_ARG(kind == KeyKind::kRelin || kind == KeyKind::kGalois,
                "not a key-switching key");
  if (kind == KeyKind::kGalois) {
    ABC_CHECK_ARG((galois_elt & 1u) != 0 && galois_elt < 2 * ctx.n(),
                  "invalid galois element");
  } else {
    ABC_CHECK_ARG(galois_elt == 0, "relin key with galois element");
  }
}

/// Bytes of @p words residues packed at @p bits bits each.
std::size_t packed_bytes(std::size_t words, int bits) {
  return (words * static_cast<std::size_t>(bits) + 7) / 8;
}

PrngDomain ksk_salted_a_domain(const KeySwitchKey& key) {
  return static_cast<PrngDomain>(
      ksk_stream_domain(ksk_a_domain(key.kind), key.galois_elt));
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

/// The shape every key-switching key writer relies on: matching halves and
/// one limb per gadget digit on every digit. The wire header records one
/// limb count and the reader relies on it for every digit; a mismatched
/// polynomial would shift every later word in the packed stream, which the
/// probabilistic residue checks cannot reliably catch.
void check_key_shape(const KeySwitchKey& key) {
  ABC_CHECK_ARG(!key.b.empty(), "empty key-switching key");
  ABC_CHECK_ARG(key.a.size() == key.b.size(),
                "mismatched key-switching key halves");
  for (std::size_t d = 0; d < key.digits(); ++d) {
    ABC_CHECK_ARG(key.b[d].limbs() == key.digits() &&
                      key.a[d].limbs() == key.digits(),
                  "gadget digit count must equal every digit's limb count");
  }
}

/// True when every a[d] is the uniform polynomial regenerated from the
/// context seed at (@p domain, @p base_stream_id + d). Key frames drop the
/// uniform halves, so the writer must prove this first — otherwise a key
/// whose uniform halves did not come from this context's seed (or whose
/// in-memory stream metadata was mangled) would serialize fine and
/// restore as different key material.
bool regenerable(const CkksContext& ctx, std::span<const poly::RnsPoly> a,
                 PrngDomain domain, u64 base_stream_id) {
  poly::RnsPoly expect =
      ctx.make_poly_for_overwrite(a.front().limbs(), poly::Domain::kEval);
  for (std::size_t d = 0; d < a.size(); ++d) {
    fill_uniform_eval(ctx, expect, domain, base_stream_id + d);
    for (std::size_t l = 0; l < a[d].limbs(); ++l) {
      const std::span<const u64> got = a[d].limb(l);
      if (!std::equal(got.begin(), got.end(), expect.limb(l).begin())) {
        return false;
      }
    }
  }
  return true;
}

constexpr const char* kNotRegenerable =
    "uniform half not regenerable from (seed, stream id)";

/// Packs a key frame: @p h, then the b half of every digit.
std::vector<u8> pack_key(const KeyHeader& h,
                         std::span<const poly::RnsPoly> b) {
  check_pack_width(h.bits_per_coeff);
  std::vector<u8> out(kKeyHeaderBytes +
                      packed_bytes(b.size() * h.limbs * b.front().n(),
                                   h.bits_per_coeff));
  WireWriter w(out);
  w.put<u32>(kKeyMagic);
  w.put<u8>(static_cast<u64>(h.bits_per_coeff));
  w.put<u8>(static_cast<u64>(h.kind));
  w.put<u8>(1);  // seed-compressed
  w.put<u16>(h.limbs);
  w.put<u8>(static_cast<u64>(h.log_n));
  w.put<u32>(h.galois_elt);
  w.put<u64>(h.stream_id);
  w.put<u32>(h.checksum());
  BitPacker packer(w.body());
  for (const poly::RnsPoly& p : b) pack_poly(packer, p, h.bits_per_coeff);
  packer.finish();
  return out;
}

/// Builds a key of @p digits full-limb digits from @p shell's kind, Galois
/// element and base stream id: the b digits are read from @p b, the a
/// digits regenerated from the salted stream at (base_stream_id + digit).
/// The wire reader and the resident record's expansion share it, so both
/// restore the same key bit for bit.
KeySwitchKey build_key_switch_key(const CkksContext& ctx, KeySwitchKey shell,
                                  std::size_t digits, int bits,
                                  BitUnpacker& b) {
  check_switch_kind(ctx, static_cast<KeyKind>(shell.kind), shell.galois_elt);
  const PrngDomain domain = ksk_salted_a_domain(shell);
  shell.b.reserve(digits);
  shell.a.reserve(digits);
  for (std::size_t d = 0; d < digits; ++d) {
    shell.b.push_back(
        ctx.make_poly_for_overwrite(ctx.max_limbs(), poly::Domain::kEval));
    unpack_poly(ctx, b, shell.b.back(), bits);
  }
  for (std::size_t d = 0; d < digits; ++d) {
    shell.a.push_back(
        ctx.make_poly_for_overwrite(ctx.max_limbs(), poly::Domain::kEval));
    fill_uniform_eval(ctx, shell.a.back(), domain, shell.base_stream_id + d);
  }
  return shell;
}

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
  WireReader r(bytes);
  ABC_CHECK_ARG(r.get<u32>() == kMagic, "bad magic");
  const int bits_per_coeff = r.get<u8>();
  const std::size_t components = r.get<u8>();
  const std::size_t limbs = r.get<u16>();
  const int log_n = r.get<u8>();
  const bool compressed = r.flag();
  ABC_CHECK_ARG(log_n == ctx->params().log_n, "degree mismatch");
  ABC_CHECK_ARG(limbs >= 1 && limbs <= ctx->max_limbs(), "limb mismatch");
  ABC_CHECK_ARG(components == 2 || components == 3, "bad component count");

  Ciphertext ct;
  ct.scale = std::bit_cast<double>(r.get<u64>());
  if (compressed) ct.compressed_c1 = CompressedComponent{r.get<u64>()};
  BitUnpacker unpacker(r.rest());
  for (std::size_t comp = 0; comp < components; ++comp) {
    // Every word is unpacked or regenerated below.
    poly::RnsPoly p = ctx->make_poly_for_overwrite(limbs, poly::Domain::kEval);
    if (comp == 1 && compressed) {
      fill_uniform_eval(*ctx, p, PrngDomain::kSymmetricA,
                        ct.compressed_c1->stream_id);
    } else {
      unpack_poly(*ctx, unpacker, p, bits_per_coeff);
    }
    ct.components.push_back(std::move(p));
  }
  r.skip_bits(unpacker.bits_consumed());
  r.expect_end();
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
  std::vector<std::size_t> frame_bytes(cts.size());
  std::size_t total = 2 * sizeof(u32);
  for (std::size_t i = 0; i < cts.size(); ++i) {
    frame_bytes[i] = ciphertext_frame_bytes(cts[i], bits_per_coeff);
    total += sizeof(u32) + frame_bytes[i];
  }
  std::vector<u8> out(total);
  WireWriter w(out);
  w.put<u32>(kBatchMagic);
  w.put<u32>(cts.size());
  std::vector<std::span<u8>> frames(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    frames[i] = w.claim(frame_bytes[i]);
  }
  w.finish();
  if (!cts.empty()) {
    cts.front().c(0).context().backend().parallel_for(
        cts.size(), [&](std::size_t i, std::size_t) {
          pack_ciphertext(frames[i], cts[i], bits_per_coeff);
        });
  }
  return out;
}

std::vector<Ciphertext> deserialize_ciphertext_batch(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_FAILPOINT(fail::points::kDeserializeBatch);
  WireReader r(bytes);
  ABC_CHECK_ARG(r.get<u32>() == kBatchMagic, "bad batch magic");
  // Cheap serial pre-scan of the frame table, then the per-frame work
  // (bit-unpacking every residue + regenerating compressed c1 halves)
  // fans out across the backend — frames are independent and land in
  // input order, so the result is bit-identical at any worker count.
  std::vector<std::span<const u8>> frames(r.count(sizeof(u32)));
  for (std::span<const u8>& frame : frames) frame = r.bytes();
  r.expect_end();
  std::vector<Ciphertext> out(frames.size());
  ctx->backend().parallel_for(frames.size(), [&](std::size_t i, std::size_t) {
    out[i] = deserialize_ciphertext(ctx, frames[i]);
  });
  return out;
}

std::vector<u8> serialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, const KeySwitchKey& key,
    int bits_per_coeff) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  check_key_shape(key);
  ABC_CHECK_ARG(regenerable(*ctx, key.a, ksk_salted_a_domain(key),
                            key.base_stream_id),
                kNotRegenerable);
  const poly::RnsPoly& first = key.b.front();
  return pack_key(KeyHeader{bits_per_coeff, static_cast<KeyKind>(key.kind),
                            first.limbs(), log2_exact(first.n()),
                            key.galois_elt, key.base_stream_id},
                  key.b);
}

KeySwitchKey deserialize_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  WireReader r(bytes);
  const KeyHeader h = read_key_header(r, *ctx);
  BitUnpacker unpacker(r.rest());
  KeySwitchKey key = build_key_switch_key(
      *ctx,
      KeySwitchKey{static_cast<KeySwitchKey::Kind>(h.kind), h.galois_elt,
                   h.stream_id, {}, {}},
      h.limbs, h.bits_per_coeff, unpacker);
  r.skip_bits(unpacker.bits_consumed());
  r.expect_end();
  return key;
}

CompressedKeySwitchKey compress_key_switch_key(
    const std::shared_ptr<const CkksContext>& ctx, std::span<const u8> frame) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  WireReader r(frame);
  const KeyHeader h = read_key_header(r, *ctx);
  check_switch_kind(*ctx, h.kind, h.galois_elt);
  const std::size_t limbs = h.limbs;
  const int bits = chain_prime_bits(*ctx);

  CompressedKeySwitchKey out;
  out.kind = static_cast<KeySwitchKey::Kind>(h.kind);
  out.galois_elt = h.galois_elt;
  out.base_stream_id = h.stream_id;
  out.limbs = static_cast<u16>(limbs);
  // The hybrid accumulation never reads digit L-1 (levels stop at L-1 and
  // digit indices at level-1), so the resident form drops it. A 1-limb
  // chain cannot key-switch at all; keep its single digit for shape.
  out.stored_digits = static_cast<u16>(limbs > 1 ? limbs - 1 : limbs);
  out.bits_per_coeff = static_cast<u8>(bits);

  // One limb at a time: every residue of every digit, the dropped one
  // included, is range-checked against its prime; the kept digits are
  // repacked back to back at the prime width with no header.
  out.packed_b.resize(
      packed_bytes(out.stored_digits * limbs * ctx->n(), bits));
  BitUnpacker in(r.rest());
  BitPacker packer(out.packed_b);
  std::vector<u64> limb(ctx->n());
  for (std::size_t d = 0; d < limbs; ++d) {
    for (std::size_t l = 0; l < limbs; ++l) {
      in.read_run(limb, h.bits_per_coeff,
                  ctx->poly_context()->modulus(l).value());
      if (d < out.stored_digits) packer.append_run(limb, bits);
    }
  }
  packer.finish();
  r.skip_bits(in.bits_consumed());
  r.expect_end();
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
  check_pack_width(rec.bits_per_coeff);
  BitUnpacker b(rec.packed_b);
  return build_key_switch_key(
      *ctx, KeySwitchKey{rec.kind, rec.galois_elt, rec.base_stream_id, {}, {}},
      rec.stored_digits, rec.bits_per_coeff, b);
}

std::vector<u8> serialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx, const PublicKey& pk,
    int bits_per_coeff) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  ABC_CHECK_ARG(pk.a.limbs() == pk.b.limbs(),
                "public key halves must carry the same limb count");
  ABC_CHECK_ARG(regenerable(*ctx, {&pk.a, 1}, PrngDomain::kPublicA,
                            pk.stream_id),
                kNotRegenerable);
  return pack_key(KeyHeader{bits_per_coeff, KeyKind::kPublic, pk.b.limbs(),
                            log2_exact(pk.b.n()), 0, pk.stream_id},
                  {&pk.b, 1});
}

PublicKey deserialize_public_key(
    const std::shared_ptr<const CkksContext>& ctx,
    std::span<const u8> bytes) {
  WireReader r(bytes);
  const KeyHeader h = read_key_header(r, *ctx);
  ABC_CHECK_ARG(h.kind == KeyKind::kPublic, "not a public key");
  ABC_CHECK_ARG(h.galois_elt == 0, "public key with galois element");

  BitUnpacker unpacker(r.rest());
  // Both are written whole: b unpacked, a regenerated from its seed.
  poly::RnsPoly b =
      ctx->make_poly_for_overwrite(h.limbs, poly::Domain::kEval);
  unpack_poly(*ctx, unpacker, b, h.bits_per_coeff);
  poly::RnsPoly a =
      ctx->make_poly_for_overwrite(h.limbs, poly::Domain::kEval);
  fill_uniform_eval(*ctx, a, PrngDomain::kPublicA, h.stream_id);
  r.skip_bits(unpacker.bits_consumed());
  r.expect_end();
  return PublicKey{std::move(b), std::move(a), h.stream_id};
}

// -- serving-daemon framing -------------------------------------------------

std::vector<u8> serialize_request_frame(const RequestFrame& req) {
  std::vector<u8> out(4 + 8 + 8 + 1 + 8 + 4 + req.payload.size());
  WireWriter w(out);
  w.put<u32>(kRequestMagic);
  w.put<u64>(req.tenant);
  w.put<u64>(req.request_id);
  w.put<u8>(req.op);
  w.put<u64>(static_cast<u64>(req.op_arg));
  w.put_bytes(req.payload);
  w.finish();
  return out;
}

RequestFrame deserialize_request_frame(std::span<const u8> bytes) {
  WireReader r(bytes);
  ABC_CHECK_ARG(r.get<u32>() == kRequestMagic, "bad request magic");
  RequestFrame req;
  req.tenant = r.get<u64>();
  req.request_id = r.get<u64>();
  req.op = r.get<u8>();
  req.op_arg = static_cast<i64>(r.get<u64>());
  const std::span<const u8> payload = r.bytes();
  r.expect_end();
  req.payload.assign(payload.begin(), payload.end());
  return req;
}

std::vector<u8> serialize_response_frame(const ResponseFrame& resp) {
  ABC_CHECK_ARG(resp.error.size() <= kMaxErrorBytes,
                "response error string exceeds the wire bound");
  std::vector<u8> out(4 + 8 + 1 + 4 + resp.error.size() + 4 +
                      resp.payload.size());
  WireWriter w(out);
  w.put<u32>(kResponseMagic);
  w.put<u64>(resp.request_id);
  w.put<u8>(resp.status);
  w.put_bytes(std::span<const u8>(
      reinterpret_cast<const u8*>(resp.error.data()), resp.error.size()));
  w.put_bytes(resp.payload);
  w.finish();
  return out;
}

ResponseFrame deserialize_response_frame(std::span<const u8> bytes) {
  WireReader r(bytes);
  ABC_CHECK_ARG(r.get<u32>() == kResponseMagic, "bad response magic");
  ResponseFrame resp;
  resp.request_id = r.get<u64>();
  resp.status = r.get<u8>();
  const std::span<const u8> error = r.bytes();
  ABC_CHECK_ARG(error.size() <= kMaxErrorBytes,
                "response error string exceeds the wire bound");
  const std::span<const u8> payload = r.bytes();
  r.expect_end();
  resp.error.assign(error.begin(), error.end());
  resp.payload.assign(payload.begin(), payload.end());
  return resp;
}

std::vector<u8> serialize_key_bundle(const KeyBundleFrames& bundle) {
  std::size_t total = 4 + 4 + 4 + bundle.public_key.size() + 4 +
                      bundle.relin_key.size();
  for (const std::vector<u8>& gk : bundle.galois_keys) total += 4 + gk.size();
  std::vector<u8> out(total);
  WireWriter w(out);
  w.put<u32>(kBundleMagic);
  w.put<u32>(bundle.galois_keys.size());
  w.put_bytes(bundle.public_key);
  w.put_bytes(bundle.relin_key);
  for (const std::vector<u8>& gk : bundle.galois_keys) w.put_bytes(gk);
  w.finish();
  return out;
}

KeyBundleFrames deserialize_key_bundle(std::span<const u8> bytes) {
  WireReader r(bytes);
  ABC_CHECK_ARG(r.get<u32>() == kBundleMagic, "bad key-bundle magic");
  // Every Galois blob needs at least its 4-byte length prefix.
  const std::size_t count = r.count(sizeof(u32));
  KeyBundleFrames bundle;
  const std::span<const u8> pk = r.bytes();
  const std::span<const u8> rlk = r.bytes();
  bundle.public_key.assign(pk.begin(), pk.end());
  bundle.relin_key.assign(rlk.begin(), rlk.end());
  bundle.galois_keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const u8> gk = r.bytes();
    bundle.galois_keys.emplace_back(gk.begin(), gk.end());
  }
  r.expect_end();
  return bundle;
}

}  // namespace abc::ckks
