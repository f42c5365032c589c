// Deserializer corruption sweep (the robustness contract of the wire
// layer): an ABCF/ABCB/ABCK blob truncated at ANY byte boundary, or with
// random bits flipped, must either deserialize successfully (a flip can
// land in payload residues — the header checksum does not cover them) or
// throw abc::InvalidArgument. Never a crash, a hang, any other exception
// type (a std::length_error or std::bad_alloc would mean a corrupted
// count reached a container resize), and never an attempt to allocate
// from an attacker-controlled length field.
//
// Sweep budget: the single-ciphertext and public-key formats are small
// enough to truncate at EVERY byte boundary. The key-switch-key and batch
// envelopes are an order of magnitude larger, so they sweep the full
// header region plus a seeded random sample of interior boundaries and
// the full tail — the regions where length fields, per-item headers and
// final-word packing live.
//
// A seeded structure-aware mutator (the last section) then holds all seven
// formats to the stronger contract: a mutated frame either throws
// InvalidArgument or re-serializes to exactly its own bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <complex>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serialize.hpp"
#include "key_frame_forgery.hpp"

namespace abc::ckks {
namespace {

using testing_ref::reseal_key_header;
using testing_ref::saturate_word;

struct Fixture {
  std::shared_ptr<const CkksContext> ctx;
  CkksEncoder encoder;
  KeyGenerator keygen;
  SecretKey sk;

  Fixture()
      : ctx(CkksContext::create(CkksParams::test_small(10, 3))),
        encoder(ctx),
        keygen(ctx),
        sk(keygen.secret_key()) {}

  std::vector<std::complex<double>> message(u64 seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<std::complex<double>> msg(encoder.slots());
    for (auto& z : msg) z = {dist(rng), dist(rng)};
    return msg;
  }
};

/// Deserializes @p bytes and fails the test unless the outcome is clean
/// success or InvalidArgument. Returns true when it deserialized.
template <class Fn>
bool expect_clean_outcome(const Fn& deserialize, const char* what) {
  try {
    deserialize();
    return true;
  } catch (const InvalidArgument&) {
    return false;  // the advertised rejection path
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception type: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception escaped";
  }
  return false;
}

/// Truncation at a set of byte boundaries: NO truncated prefix may parse
/// (every format ends with payload words, so a strict prefix is always
/// incomplete) and every rejection must be InvalidArgument.
template <class Fn>
void sweep_truncations(const std::vector<u8>& good,
                       const std::set<std::size_t>& cuts, const Fn& run) {
  for (std::size_t len : cuts) {
    ASSERT_LT(len, good.size());
    const std::vector<u8> cut(good.begin(), good.begin() + len);
    const bool parsed =
        expect_clean_outcome([&] { run(cut); }, "truncated blob");
    EXPECT_FALSE(parsed) << "a strict prefix of " << good.size()
                         << " bytes parsed at length " << len;
  }
}

std::set<std::size_t> every_boundary(std::size_t size) {
  std::set<std::size_t> cuts;
  for (std::size_t i = 0; i < size; ++i) cuts.insert(i);
  return cuts;
}

/// Full header + seeded random interior sample + full tail; documents the
/// budget for the big envelopes.
std::set<std::size_t> sampled_boundaries(std::size_t size, u64 seed) {
  std::set<std::size_t> cuts;
  const std::size_t head = std::min<std::size_t>(size, 96);
  for (std::size_t i = 0; i < head; ++i) cuts.insert(i);
  for (std::size_t i = size - std::min<std::size_t>(size, 64); i < size; ++i) {
    cuts.insert(i);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> dist(0, size - 1);
  for (int i = 0; i < 256; ++i) cuts.insert(dist(rng));
  return cuts;
}

/// Seeded random bit flips: each trial flips 1..4 bits of a fresh copy;
/// the outcome must be clean (parse or InvalidArgument, nothing else).
template <class Fn>
void sweep_bit_flips(const std::vector<u8>& good, u64 seed, int trials,
                     const Fn& run) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, good.size() * 8 - 1);
  std::uniform_int_distribution<int> nflips(1, 4);
  for (int t = 0; t < trials; ++t) {
    std::vector<u8> bad = good;
    const int n = nflips(rng);
    for (int f = 0; f < n; ++f) {
      const std::size_t bit = pos(rng);
      bad[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    }
    expect_clean_outcome([&] { run(bad); }, "bit-flipped blob");
  }
}

TEST(CorruptionSweep, CiphertextTruncatedAtEveryByteBoundary) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);  // seeded symmetric: the small ABCF shape
  const std::vector<u8> good =
      serialize_ciphertext(enc.encrypt(f.encoder.encode(f.message(1), 2)), 44);
  sweep_truncations(good, every_boundary(good.size()), [&](const auto& b) {
    (void)deserialize_ciphertext(f.ctx, b);
  });
}

TEST(CorruptionSweep, PublicKeyCiphertextTruncatedAtEveryByteBoundary) {
  Fixture f;
  Encryptor enc(f.ctx, f.keygen.public_key(f.sk));  // 2 components on wire
  const std::vector<u8> good =
      serialize_ciphertext(enc.encrypt(f.encoder.encode(f.message(2), 2)), 44);
  sweep_truncations(good, every_boundary(good.size()), [&](const auto& b) {
    (void)deserialize_ciphertext(f.ctx, b);
  });
}

TEST(CorruptionSweep, PublicKeyBlobTruncatedAtEveryByteBoundary) {
  Fixture f;
  const std::vector<u8> good =
      serialize_public_key(f.ctx, f.keygen.public_key(f.sk), 44);
  sweep_truncations(good, every_boundary(good.size()), [&](const auto& b) {
    (void)deserialize_public_key(f.ctx, b);
  });
}

TEST(CorruptionSweep, KeySwitchKeyTruncatedAtSampledBoundaries) {
  Fixture f;
  const std::vector<u8> good =
      serialize_key_switch_key(f.ctx, f.keygen.relin_key(f.sk).key, 44);
  sweep_truncations(good, sampled_boundaries(good.size(), 101),
                    [&](const auto& b) {
                      (void)deserialize_key_switch_key(f.ctx, b);
                    });
  // The resident record reads the same frame without expanding it.
  sweep_truncations(good, sampled_boundaries(good.size(), 101),
                    [&](const auto& b) {
                      (void)compress_key_switch_key(f.ctx, b);
                    });
}

TEST(CorruptionSweep, CiphertextBatchTruncatedAtSampledBoundaries) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  std::vector<Ciphertext> cts;
  for (u64 s = 0; s < 3; ++s) {
    cts.push_back(enc.encrypt(f.encoder.encode(f.message(s), 2)));
  }
  const std::vector<u8> good = serialize_ciphertext_batch(cts, 44);
  sweep_truncations(good, sampled_boundaries(good.size(), 202),
                    [&](const auto& b) {
                      (void)deserialize_ciphertext_batch(f.ctx, b);
                    });
}

TEST(CorruptionSweep, BitFlipsNeverEscapeTheInvalidArgumentContract) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const std::vector<u8> ct =
      serialize_ciphertext(enc.encrypt(f.encoder.encode(f.message(3), 2)), 44);
  sweep_bit_flips(ct, 303, 400, [&](const auto& b) {
    (void)deserialize_ciphertext(f.ctx, b);
  });

  const std::vector<u8> pk =
      serialize_public_key(f.ctx, f.keygen.public_key(f.sk), 44);
  sweep_bit_flips(pk, 404, 400, [&](const auto& b) {
    (void)deserialize_public_key(f.ctx, b);
  });

  std::vector<Ciphertext> cts;
  cts.push_back(enc.encrypt(f.encoder.encode(f.message(4), 2)));
  cts.push_back(enc.encrypt(f.encoder.encode(f.message(5), 2)));
  const std::vector<u8> batch = serialize_ciphertext_batch(cts, 44);
  sweep_bit_flips(batch, 505, 400, [&](const auto& b) {
    (void)deserialize_ciphertext_batch(f.ctx, b);
  });

  const std::vector<u8> ksk =
      serialize_key_switch_key(f.ctx, f.keygen.relin_key(f.sk).key, 44);
  sweep_bit_flips(ksk, 606, 200, [&](const auto& b) {
    (void)deserialize_key_switch_key(f.ctx, b);
  });
}

TEST(CorruptionSweep, ForgedCountFieldsAreRejectedBeforeAllocation) {
  // Inflate the batch count field directly (bytes 4..7 of "ABCB",
  // little-endian): the parser must reject the forged count against the
  // actual envelope size instead of trusting it into a resize.
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  std::vector<Ciphertext> cts;
  cts.push_back(enc.encrypt(f.encoder.encode(f.message(6), 2)));
  const std::vector<u8> good = serialize_ciphertext_batch(cts, 44);
  for (const u32 forged : {u32{2}, u32{1u << 20}, u32{0xffffffffu}}) {
    std::vector<u8> bad = good;
    bad[4] = static_cast<u8>(forged);
    bad[5] = static_cast<u8>(forged >> 8);
    bad[6] = static_cast<u8>(forged >> 16);
    bad[7] = static_cast<u8>(forged >> 24);
    EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, bad), InvalidArgument)
        << "forged count " << forged;
  }
}

// -- the residue run reader ---------------------------------------------------
//
// The run reader makes 8-byte loads while a whole load fits in the span and
// hands the last < 8 bytes to the per-word path; its truncation and range
// checks run once per limb. The cases below aim at exactly those seams, at
// several packing widths so words end at different bit offsets of the
// final load.

constexpr int kSeamWidths[] = {36, 41, 44, 57};

/// Every truncation inside the last 16 bytes: the span where the 8-byte
/// path hands off to the byte tail.
std::set<std::size_t> last_16_bytes(std::size_t size) {
  std::set<std::size_t> cuts;
  for (std::size_t i = size - std::min<std::size_t>(size, 16); i < size; ++i) {
    cuts.insert(i);
  }
  return cuts;
}

/// Saturates the last residue of a frame. Every format packs n * limbs
/// words per polynomial with n a multiple of 8, so the final residue ends
/// exactly on the frame's last bit.
void saturate_last_word(std::vector<u8>& bytes, int bits) {
  saturate_word(bytes, bytes.size() * 8, bits);
}

TEST(CorruptionSweep, RunReaderTruncatedInTheLast16BytesAtEveryWidth) {
  Fixture f;
  Encryptor sym(f.ctx, f.sk);
  Encryptor pub(f.ctx, f.keygen.public_key(f.sk));
  const PublicKey pk = f.keygen.public_key(f.sk);
  const RelinKey rlk = f.keygen.relin_key(f.sk);
  for (int bits : kSeamWidths) {
    SCOPED_TRACE(bits);
    const Ciphertext c = sym.encrypt(f.encoder.encode(f.message(11), 3));
    const Ciphertext p = pub.encrypt(f.encoder.encode(f.message(12), 2));
    for (const Ciphertext* ct : {&c, &p}) {
      const std::vector<u8> frame = serialize_ciphertext(*ct, bits);
      sweep_truncations(frame, last_16_bytes(frame.size()),
                        [&](const auto& b) {
                          (void)deserialize_ciphertext(f.ctx, b);
                        });
    }

    const std::vector<Ciphertext> cts{c, p};
    const std::vector<u8> batch = serialize_ciphertext_batch(cts, bits);
    sweep_truncations(batch, last_16_bytes(batch.size()), [&](const auto& b) {
      (void)deserialize_ciphertext_batch(f.ctx, b);
    });

    const std::vector<u8> pkb = serialize_public_key(f.ctx, pk, bits);
    sweep_truncations(pkb, last_16_bytes(pkb.size()), [&](const auto& b) {
      (void)deserialize_public_key(f.ctx, b);
    });
    // The frame's tail is the dropped last digit: the frame-built record
    // must still find it cut short.
    const std::vector<u8> ksk = serialize_key_switch_key(f.ctx, rlk.key, bits);
    sweep_truncations(ksk, last_16_bytes(ksk.size()), [&](const auto& b) {
      (void)deserialize_key_switch_key(f.ctx, b);
    });
    sweep_truncations(ksk, last_16_bytes(ksk.size()), [&](const auto& b) {
      (void)compress_key_switch_key(f.ctx, b);
    });
  }

  // The resident key record: its packed b halves go through the same
  // reader when the key cache regenerates a key.
  const CompressedKeySwitchKey rec =
      compress_key_switch_key(f.ctx, serialize_key_switch_key(f.ctx, rlk.key));
  for (std::size_t len : last_16_bytes(rec.packed_b.size())) {
    CompressedKeySwitchKey cut = rec;
    cut.packed_b.resize(len);
    cut.packed_b.shrink_to_fit();
    EXPECT_THROW((void)expand_key_switch_key(f.ctx, cut), InvalidArgument)
        << "packed b cut to " << len << " bytes";
  }
}

TEST(CorruptionSweep, OutOfRangeFinalResidueIsRejectedAtEveryWidth) {
  // The very last coefficient of the last limb is read by the byte tail,
  // after every 8-byte load; an out-of-range value there must still be
  // caught. The first residue of the payload (8-byte path) is checked too.
  Fixture f;
  Encryptor sym(f.ctx, f.sk);
  const PublicKey pk = f.keygen.public_key(f.sk);
  const RelinKey rlk = f.keygen.relin_key(f.sk);
  for (int bits : kSeamWidths) {
    SCOPED_TRACE(bits);
    const std::vector<u8> ct = serialize_ciphertext(
        sym.encrypt(f.encoder.encode(f.message(13), 3)), bits);
    std::vector<u8> bad = ct;
    saturate_last_word(bad, bits);
    EXPECT_THROW((void)deserialize_ciphertext(f.ctx, bad), InvalidArgument);
    bad = ct;
    saturate_word(bad, 208 + static_cast<std::size_t>(bits), bits);  // c0[0]
    EXPECT_THROW((void)deserialize_ciphertext(f.ctx, bad), InvalidArgument);

    const std::vector<Ciphertext> cts{
        sym.encrypt(f.encoder.encode(f.message(14), 2))};
    bad = serialize_ciphertext_batch(cts, bits);
    saturate_last_word(bad, bits);
    EXPECT_THROW((void)deserialize_ciphertext_batch(f.ctx, bad),
                 InvalidArgument);

    bad = serialize_public_key(f.ctx, pk, bits);
    saturate_last_word(bad, bits);
    EXPECT_THROW((void)deserialize_public_key(f.ctx, bad), InvalidArgument);

    // A key frame's last residue belongs to the digit the resident record
    // drops; the one before digit L-1 ends the last kept digit. Both
    // readers check both.
    const std::vector<u8> ksk = serialize_key_switch_key(f.ctx, rlk.key, bits);
    const std::size_t limbs = f.ctx->max_limbs();
    const std::size_t kept_end = 26 * 8 + (limbs - 1) * limbs * f.ctx->n() *
                                              static_cast<std::size_t>(bits);
    for (const std::size_t end : {ksk.size() * 8, kept_end}) {
      SCOPED_TRACE(end);
      bad = ksk;
      saturate_word(bad, end, bits);
      EXPECT_THROW((void)deserialize_key_switch_key(f.ctx, bad),
                   InvalidArgument);
      EXPECT_THROW((void)compress_key_switch_key(f.ctx, bad),
                   InvalidArgument);
    }
  }
  CompressedKeySwitchKey rec =
      compress_key_switch_key(f.ctx, serialize_key_switch_key(f.ctx, rlk.key));
  saturate_last_word(rec.packed_b, rec.bits_per_coeff);
  EXPECT_THROW((void)expand_key_switch_key(f.ctx, rec), InvalidArgument);
}

TEST(CorruptionSweep, HeaderLimbCountBeyondThePayloadIsRejected) {
  // A ciphertext header claiming more limbs than its payload carries (the
  // limb field is bytes 6..7 of the frame, little-endian): the first run
  // that would read past the span must be refused before it reads.
  Fixture f;
  Encryptor sym(f.ctx, f.sk);
  Encryptor pub(f.ctx, f.keygen.public_key(f.sk));
  for (const Ciphertext& ct :
       {sym.encrypt(f.encoder.encode(f.message(15), 1)),
        sym.encrypt(f.encoder.encode(f.message(16), 2)),
        pub.encrypt(f.encoder.encode(f.message(17), 2))}) {
    const std::vector<u8> good = serialize_ciphertext(ct, 44);
    for (std::size_t limbs = ct.limbs() + 1; limbs <= f.ctx->max_limbs();
         ++limbs) {
      std::vector<u8> bad = good;
      bad[6] = static_cast<u8>(limbs);
      bad[7] = static_cast<u8>(limbs >> 8);
      EXPECT_THROW((void)deserialize_ciphertext(f.ctx, bad), InvalidArgument)
          << ct.limbs() << " limbs relabelled " << limbs;

      const std::vector<Ciphertext> one{ct};
      std::vector<u8> batch = serialize_ciphertext_batch(one, 44);
      batch[12 + 6] = static_cast<u8>(limbs);  // after magic, count, length
      batch[12 + 7] = static_cast<u8>(limbs >> 8);
      EXPECT_THROW((void)deserialize_ciphertext_batch(f.ctx, batch),
                   InvalidArgument);
    }
  }
  // The resident record's limb count is pinned to the context's, so a
  // record claiming more stored digits than its packed halves hold is the
  // key-cache form of the same forgery.
  const RelinKey rlk = f.keygen.relin_key(f.sk);
  CompressedKeySwitchKey rec =
      compress_key_switch_key(f.ctx, serialize_key_switch_key(f.ctx, rlk.key));
  rec.stored_digits = rec.limbs;
  EXPECT_THROW((void)expand_key_switch_key(f.ctx, rec), InvalidArgument);
}

// -- structure-aware seeded mutator -------------------------------------------
//
// Every wire format gets the same fixed budget of mutations, an equal share
// of each kind. A mutation is drawn from (seed, format, index) alone, so a
// failure reproduces from the numbers it prints. The mutator knows where
// each format keeps its length and count fields: besides bit flips, byte
// overwrites and truncations it appends, inserts and erases bytes, splices
// in a chunk of another format's frame (or a whole frame behind a fixed-up
// length prefix), and forges every length and count field. Half of the
// mutated ABCK headers get a fresh checksum, so forged header fields reach
// the checks behind it.
//
// The property is the readers' whole contract: a mutated frame either
// throws InvalidArgument, or it parses and re-serializes to exactly the
// mutated bytes — every value has one encoding.

constexpr u64 kMutatorSeed = 0xabcf'5eed;
constexpr int kMutationsPerFormat = 18000;

/// A little-endian header field: byte offset and width.
struct Field {
  std::size_t offset;
  std::size_t width;
};

u64 get_le(const std::vector<u8>& b, Field f) {
  u64 v = 0;
  for (std::size_t i = 0; i < f.width; ++i) {
    v |= static_cast<u64>(b[f.offset + i]) << (8 * i);
  }
  return v;
}

void put_le(std::vector<u8>& b, Field f, u64 v) {
  for (std::size_t i = 0; i < f.width; ++i) {
    b[f.offset + i] = static_cast<u8>(v >> (8 * i));
  }
}

/// The u32 prefixes of @p items consecutive length-prefixed items, the
/// first prefix at @p pos.
std::vector<Field> length_prefixes(const std::vector<u8>& frame,
                                   std::size_t pos, std::size_t items) {
  std::vector<Field> out;
  for (std::size_t i = 0; i < items; ++i) {
    out.push_back({pos, 4});
    pos += 4 + get_le(frame, {pos, 4});
  }
  return out;
}

/// Re-serializes the value a frame parsed to.
using Reencoder = std::function<std::vector<u8>()>;

struct WireFormat {
  std::string name;
  std::vector<u8> frame;
  std::vector<Field> counts;   // item and limb counts
  std::vector<Field> lengths;  // u32 length prefixes
  bool key_header = false;
  /// Parses a frame (throwing InvalidArgument when it is rejected).
  std::function<Reencoder(const std::vector<u8>&)> parse;
};

/// The seven formats, each one real frame from the fixture's keys.
std::vector<WireFormat> wire_formats(Fixture& f) {
  const auto ctx = f.ctx;
  Encryptor sym(ctx, f.sk);
  const PublicKey pk = f.keygen.public_key(f.sk);
  Encryptor pub(ctx, pk);
  const KeySwitchKey gk = f.keygen.galois_key(f.sk, 1);
  const std::vector<Ciphertext> cts{
      sym.encrypt(f.encoder.encode(f.message(20), 2)),
      pub.encrypt(f.encoder.encode(f.message(21), 1))};
  const KeyBundleFrames bundle{
      serialize_public_key(ctx, pk),
      serialize_key_switch_key(ctx, f.keygen.relin_key(f.sk).key),
      {serialize_key_switch_key(ctx, gk)}};
  RequestFrame req{7, 11, 1, -1, std::vector<u8>(48, 0x5a)};
  ResponseFrame resp{11, 5, "every eligible run queue is at capacity",
                     std::vector<u8>(24, 0xa5)};

  std::vector<WireFormat> out;
  WireFormat& abcf = out.emplace_back();
  abcf.name = "ABCF";
  abcf.frame = serialize_ciphertext(cts[0], 44);
  abcf.counts = {{5, 1}, {6, 2}};  // components, limbs
  abcf.parse = [ctx](const std::vector<u8>& b) -> Reencoder {
    return [ct = deserialize_ciphertext(ctx, b), bits = b[4]] {
      return serialize_ciphertext(ct, bits);
    };
  };

  WireFormat& abcb = out.emplace_back();
  abcb.name = "ABCB";
  abcb.frame = serialize_ciphertext_batch(cts, 44);
  abcb.counts = {{4, 4}};
  abcb.lengths = length_prefixes(abcb.frame, 8, cts.size());
  for (const Field& length : abcb.lengths) {  // each frame's own counts
    abcb.counts.push_back({length.offset + 4 + 5, 1});
    abcb.counts.push_back({length.offset + 4 + 6, 2});
  }
  abcb.parse = [ctx](const std::vector<u8>& b) -> Reencoder {
    // Every frame here packs at 44 bits; an empty batch has no width.
    return [cts = deserialize_ciphertext_batch(ctx, b),
            bits = b.size() > 16 ? b[16] : 44] {
      return serialize_ciphertext_batch(cts, bits);
    };
  };

  WireFormat& ksk = out.emplace_back();
  ksk.name = "ABCK key-switch";
  ksk.frame = bundle.galois_keys.front();
  ksk.counts = {{7, 2}};  // limbs
  ksk.key_header = true;
  ksk.parse = [ctx](const std::vector<u8>& b) -> Reencoder {
    // The frame-built resident record must accept exactly the frames the
    // expanding reader accepts.
    bool record_built = true;
    try {
      (void)compress_key_switch_key(ctx, b);
    } catch (const InvalidArgument&) {
      record_built = false;
    }
    try {
      KeySwitchKey key = deserialize_key_switch_key(ctx, b);
      EXPECT_TRUE(record_built) << "the reader accepts a frame the record "
                                   "builder rejects";
      return [ctx, key = std::move(key), bits = b[4]] {
        return serialize_key_switch_key(ctx, key, bits);
      };
    } catch (const InvalidArgument&) {
      EXPECT_FALSE(record_built) << "the record builder accepts a frame the "
                                    "reader rejects";
      throw;
    }
  };

  WireFormat& abck_pk = out.emplace_back();
  abck_pk.name = "ABCK public";
  abck_pk.frame = bundle.public_key;
  abck_pk.counts = {{7, 2}};
  abck_pk.key_header = true;
  abck_pk.parse = [ctx](const std::vector<u8>& b) -> Reencoder {
    return [ctx, key = deserialize_public_key(ctx, b), bits = b[4]] {
      return serialize_public_key(ctx, key, bits);
    };
  };

  WireFormat& abcq = out.emplace_back();
  abcq.name = "ABCQ";
  abcq.frame = serialize_request_frame(req);
  abcq.lengths = length_prefixes(abcq.frame, 29, 1);
  abcq.parse = [](const std::vector<u8>& b) -> Reencoder {
    return [req = deserialize_request_frame(b)] {
      return serialize_request_frame(req);
    };
  };

  WireFormat& abcs = out.emplace_back();
  abcs.name = "ABCS";
  abcs.frame = serialize_response_frame(resp);
  abcs.lengths = length_prefixes(abcs.frame, 13, 2);  // error, payload
  abcs.parse = [](const std::vector<u8>& b) -> Reencoder {
    return [resp = deserialize_response_frame(b)] {
      return serialize_response_frame(resp);
    };
  };

  WireFormat& abcp = out.emplace_back();
  abcp.name = "ABCP";
  abcp.frame = serialize_key_bundle(bundle);
  abcp.counts = {{4, 4}};
  abcp.lengths = length_prefixes(abcp.frame, 8, 2 + bundle.galois_keys.size());
  abcp.parse = [](const std::vector<u8>& b) -> Reencoder {
    return [bundle = deserialize_key_bundle(b)] {
      return serialize_key_bundle(bundle);
    };
  };
  return out;
}

enum Mutation : int {
  kFlipBits,
  kOverwriteByte,
  kTruncate,
  kAppend,
  kInsert,
  kErase,
  kSpliceChunk,
  kSpliceFrame,
  kForgeField,
  kMutationKinds,
};

constexpr const char* kMutationNames[kMutationKinds] = {
    "flip bits", "overwrite byte", "truncate",     "append",      "insert",
    "erase",     "splice chunk",   "splice frame", "forge field"};

/// One mutation of @p fmt's frame. Donor frames for splices come from
/// @p formats (any of them, @p fmt included).
std::vector<u8> mutate(const WireFormat& fmt,
                       const std::vector<WireFormat>& formats, Mutation kind,
                       std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {  // uniform in [0, n)
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto junk = [&](std::size_t n) {  // zeros or random bytes
    std::vector<u8> bytes(n, 0);
    if (below(2) == 0) {
      for (u8& b : bytes) b = static_cast<u8>(rng());
    }
    return bytes;
  };
  const std::vector<u8>& donor = formats[below(formats.size())].frame;
  std::vector<u8> b = fmt.frame;
  switch (kind) {
    case kFlipBits:
      for (std::size_t n = 1 + below(4); n > 0; --n) {
        const std::size_t bit = below(b.size() * 8);
        b[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
      }
      break;
    case kOverwriteByte:
      b[below(b.size())] = static_cast<u8>(rng());
      break;
    case kTruncate:
      b.resize(below(b.size()));
      break;
    case kAppend: {
      const std::vector<u8> tail = junk(1 + below(16));
      b.insert(b.end(), tail.begin(), tail.end());
      break;
    }
    case kInsert: {
      const std::vector<u8> bytes = junk(1 + below(16));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(below(b.size() + 1)),
               bytes.begin(), bytes.end());
      break;
    }
    case kErase: {
      const std::size_t at = below(b.size());
      const std::size_t n = 1 + below(std::min<std::size_t>(16, b.size() - at));
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case kSpliceChunk: {
      // Bytes [at, at + cut) give way to a donor chunk of up to 64 bytes.
      const std::size_t n = 1 + below(std::min<std::size_t>(64, donor.size()));
      const std::size_t from = below(donor.size() - n + 1);
      const std::size_t at = below(b.size());
      const std::size_t cut =
          below(std::min<std::size_t>(64, b.size() - at) + 1);
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + cut));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
               donor.begin() + static_cast<std::ptrdiff_t>(from),
               donor.begin() + static_cast<std::ptrdiff_t>(from + n));
      break;
    }
    case kSpliceFrame: {
      // A whole donor frame in place of one length-prefixed item, the
      // prefix fixed up; a format without items is replaced outright.
      if (fmt.lengths.empty()) {
        b = donor;
        break;
      }
      const Field length = fmt.lengths[below(fmt.lengths.size())];
      const std::size_t at = length.offset + 4;
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + get_le(b, length)));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), donor.begin(),
               donor.end());
      put_le(b, length, donor.size());
      break;
    }
    case kForgeField: {
      std::vector<Field> fields = fmt.counts;
      fields.insert(fields.end(), fmt.lengths.begin(), fmt.lengths.end());
      const Field field = fields[below(fields.size())];
      const u64 max = field.width == 8 ? ~u64{0}
                                       : (u64{1} << (8 * field.width)) - 1;
      const u64 was = get_le(b, field);
      const std::array<u64, 8> forged = {
          0, 1, was - 1, was + 1, was + 2 + below(16), max, max / 2 + 1, rng()};
      put_le(b, field, forged[below(forged.size())] & max);
      break;
    }
    case kMutationKinds:
      break;
  }
  if (fmt.key_header && below(2) == 0) reseal_key_header(b);
  return b;
}

/// Holds @p bytes to the one-encoding contract. Returns true when they
/// parsed.
bool expect_one_encoding(const WireFormat& fmt, const std::vector<u8>& bytes,
                         const std::string& where) {
  Reencoder again;
  try {
    again = fmt.parse(bytes);
  } catch (const InvalidArgument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": wrong exception type: " << e.what();
    return false;
  } catch (...) {
    ADD_FAILURE() << where << ": non-std exception escaped";
    return false;
  }
  try {
    EXPECT_TRUE(again() == bytes)
        << where << ": parsed, but re-serializes to other bytes";
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": parsed, but re-serializing threw "
                  << e.what();
  }
  return true;
}

class SeededMutator : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeededMutator, KeepsOneEncodingPerValue) {
  Fixture f;
  const std::vector<WireFormat> formats = wire_formats(f);
  const std::size_t fi = GetParam();
  const WireFormat& fmt = formats[fi];
  ASSERT_TRUE(expect_one_encoding(fmt, fmt.frame, fmt.name + " unmutated"));
  std::array<int, kMutationKinds> parsed{};
  for (int i = 0; i < kMutationsPerFormat; ++i) {
    std::seed_seq seq{kMutatorSeed, static_cast<u64>(fi), static_cast<u64>(i)};
    std::mt19937_64 rng(seq);
    const auto kind = static_cast<Mutation>(i % kMutationKinds);
    const std::vector<u8> bad = mutate(fmt, formats, kind, rng);
    parsed[kind] += expect_one_encoding(
        fmt, bad,
        fmt.name + " seed " + std::to_string(kMutatorSeed) + " format " +
            std::to_string(fi) + " mutation " + std::to_string(i) + " (" +
            kMutationNames[kind] + ")");
  }
  // A flip inside the residues or an opaque payload still parses (the
  // frames carry no payload checksum), and a truncation never does: the
  // mutator must reach both outcomes or it shows nothing.
  EXPECT_GT(parsed[kFlipBits], 0);
  EXPECT_EQ(parsed[kTruncate], 0);
}

std::string format_name(const ::testing::TestParamInfo<std::size_t>& info) {
  constexpr const char* kNames[] = {"ABCF", "ABCB", "ABCK_key_switch",
                                    "ABCK_public", "ABCQ", "ABCS", "ABCP"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SeededMutator,
                         ::testing::Range<std::size_t>(0, 7), format_name);

// -- the frame-built resident record ------------------------------------------
//
// Registration builds each resident record straight from its "ABCK" frame
// (compress_key_switch_key), never through an expanded key. It must refuse
// every frame the expanding reader refuses, with the header resealed so a
// forged field reaches the check behind the checksum.

TEST(FrameBuiltRecord, RejectsFlagZeroWrongKindAndForeignHeaders) {
  Fixture f;
  const std::vector<u8> rlk =
      serialize_key_switch_key(f.ctx, f.keygen.relin_key(f.sk).key);
  const std::vector<u8> pk =
      serialize_public_key(f.ctx, f.keygen.public_key(f.sk));
  ASSERT_NO_THROW((void)compress_key_switch_key(f.ctx, rlk));

  const auto forged = [](std::vector<u8> b, std::size_t at, u8 value) {
    b[at] = value;
    reseal_key_header(b);
    return b;
  };
  // The flag byte (offset 6): 0 was the uncompressed form and is refused
  // like any other value but 1, by both key readers.
  for (const u8 flag : {u8{0}, u8{2}}) {
    SCOPED_TRACE(static_cast<int>(flag));
    EXPECT_THROW((void)compress_key_switch_key(f.ctx, forged(rlk, 6, flag)),
                 InvalidArgument);
    EXPECT_THROW((void)deserialize_key_switch_key(f.ctx, forged(rlk, 6, flag)),
                 InvalidArgument);
    EXPECT_THROW((void)deserialize_public_key(f.ctx, forged(pk, 6, flag)),
                 InvalidArgument);
  }
  // Wrong kind (offset 5): a public-key frame, and kind bytes past the
  // enum.
  EXPECT_THROW((void)compress_key_switch_key(f.ctx, pk), InvalidArgument);
  for (const u8 kind : {u8{2}, u8{3}, u8{0xff}}) {
    EXPECT_THROW((void)compress_key_switch_key(f.ctx, forged(rlk, 5, kind)),
                 InvalidArgument);
  }
  // A relin kind carrying a Galois element (offset 10), and a frame for
  // another context.
  EXPECT_THROW((void)compress_key_switch_key(f.ctx, forged(rlk, 10, 3)),
               InvalidArgument);
  const auto other = CkksContext::create(CkksParams::test_small(10, 2));
  EXPECT_THROW((void)compress_key_switch_key(other, rlk), InvalidArgument);
  // A trailing byte.
  std::vector<u8> padded = rlk;
  padded.push_back(0);
  EXPECT_THROW((void)compress_key_switch_key(f.ctx, padded), InvalidArgument);
}

TEST(FrameBuiltRecord, MatchesTheExpandedKeyOnEveryKeptDigitAtEveryWidth) {
  // The record does not depend on the frame's packing width: it repacks
  // at the prime width, and expands to the key the reader restores.
  Fixture f;
  const KeySwitchKey gk = f.keygen.galois_key(f.sk, 2);
  const CompressedKeySwitchKey ref =
      compress_key_switch_key(f.ctx, serialize_key_switch_key(f.ctx, gk));
  for (int bits : kSeamWidths) {
    SCOPED_TRACE(bits);
    const std::vector<u8> frame = serialize_key_switch_key(f.ctx, gk, bits);
    const CompressedKeySwitchKey rec = compress_key_switch_key(f.ctx, frame);
    EXPECT_EQ(rec.packed_b, ref.packed_b);
    EXPECT_EQ(rec.kind, KeySwitchKey::Kind::kGalois);
    EXPECT_EQ(rec.galois_elt, gk.galois_elt);
    EXPECT_EQ(rec.base_stream_id, gk.base_stream_id);
    const KeySwitchKey back = expand_key_switch_key(f.ctx, rec);
    const KeySwitchKey full = deserialize_key_switch_key(f.ctx, frame);
    ASSERT_EQ(back.digits(), rec.stored_digits);
    for (std::size_t d = 0; d < back.digits(); ++d) {
      for (std::size_t l = 0; l < back.b[d].limbs(); ++l) {
        EXPECT_TRUE(std::ranges::equal(back.b[d].limb(l), full.b[d].limb(l)));
        EXPECT_TRUE(std::ranges::equal(back.a[d].limb(l), full.a[d].limb(l)));
      }
    }
  }
}

}  // namespace
}  // namespace abc::ckks
