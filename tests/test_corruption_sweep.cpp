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

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <set>
#include <vector>

#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serialize.hpp"
#include "engine/batch_keygen.hpp"

namespace abc::ckks {
namespace {

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
  engine::BatchKeyGenerator kg(f.ctx, f.sk);
  const std::vector<u8> good =
      serialize_key_switch_key(f.ctx, kg.relin_key().key, 44);
  sweep_truncations(good, sampled_boundaries(good.size(), 101),
                    [&](const auto& b) {
                      (void)deserialize_key_switch_key(f.ctx, b);
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

  engine::BatchKeyGenerator kg(f.ctx, f.sk);
  const std::vector<u8> ksk =
      serialize_key_switch_key(f.ctx, kg.relin_key().key, 44);
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

/// Sets the @p bits-wide word ending @p end_bits bits into @p bytes to all
/// ones (>= every prime of the chain, since bits >= the prime width).
void saturate_word(std::vector<u8>& bytes, std::size_t end_bits, int bits) {
  for (std::size_t b = end_bits - static_cast<std::size_t>(bits);
       b < end_bits; ++b) {
    bytes[b / 8] |= static_cast<u8>(1u << (b % 8));
  }
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

    for (bool compressed : {true, false}) {
      const std::vector<u8> pkb =
          serialize_public_key(f.ctx, pk, bits, compressed);
      sweep_truncations(pkb, last_16_bytes(pkb.size()), [&](const auto& b) {
        (void)deserialize_public_key(f.ctx, b);
      });
      const std::vector<u8> ksk =
          serialize_key_switch_key(f.ctx, rlk.key, bits, compressed);
      sweep_truncations(ksk, last_16_bytes(ksk.size()), [&](const auto& b) {
        (void)deserialize_key_switch_key(f.ctx, b);
      });
    }
  }

  // The resident key record: its packed b halves go through the same
  // reader when the key cache regenerates a key.
  const CompressedKeySwitchKey rec = compress_key_switch_key(f.ctx, rlk.key);
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

    bad = serialize_public_key(f.ctx, pk, bits, false);
    saturate_last_word(bad, bits);
    EXPECT_THROW((void)deserialize_public_key(f.ctx, bad), InvalidArgument);

    bad = serialize_key_switch_key(f.ctx, rlk.key, bits, false);
    saturate_last_word(bad, bits);
    EXPECT_THROW((void)deserialize_key_switch_key(f.ctx, bad),
                 InvalidArgument);
  }
  CompressedKeySwitchKey rec = compress_key_switch_key(f.ctx, rlk.key);
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
  CompressedKeySwitchKey rec = compress_key_switch_key(f.ctx, rlk.key);
  rec.stored_digits = rec.limbs;
  EXPECT_THROW((void)expand_key_switch_key(f.ctx, rec), InvalidArgument);
}

}  // namespace
}  // namespace abc::ckks
