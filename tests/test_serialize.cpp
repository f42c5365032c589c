#include <gtest/gtest.h>

#include <random>

#include "ckks/decryptor.hpp"
#include "ckks/encoder.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/serialize.hpp"

namespace abc::ckks {
namespace {

TEST(BitPacker, RoundtripVariousWidths) {
  std::mt19937_64 rng(1);
  for (int bits : {1, 7, 8, 13, 36, 44, 57}) {
    BitPacker packer;
    std::vector<u64> values(257);
    const u64 mask = bits == 64 ? ~u64{0} : (u64{1} << bits) - 1;
    for (u64& v : values) {
      v = rng() & mask;
      packer.append(v, bits);
    }
    const std::vector<u8> bytes = packer.finish();
    EXPECT_EQ(bytes.size(), (values.size() * bits + 7) / 8);
    BitUnpacker unpacker(bytes);
    for (u64 v : values) EXPECT_EQ(unpacker.read(bits), v) << bits;
  }
}

TEST(BitPacker, RejectsOversizedValues) {
  BitPacker packer;
  EXPECT_THROW(packer.append(1u << 9, 9), InvalidArgument);
  EXPECT_THROW(packer.append(0, 58), InvalidArgument);
}

TEST(BitUnpacker, TruncationDetected) {
  BitPacker packer;
  packer.append(0x7f, 8);
  const auto bytes = packer.finish();
  BitUnpacker unpacker(bytes);
  (void)unpacker.read(8);
  EXPECT_THROW(unpacker.read(8), InvalidArgument);
}

TEST(BitPacker, CrossByteBoundaryWords) {
  // Regression for words straddling byte boundaries: a 7-bit prefix puts
  // every following word at bit offset 7, so a 17-bit word spans 4 bytes
  // and a 44-bit word spans 7. Mixed widths must still read back exactly.
  BitPacker packer;
  packer.append(0x55, 7);
  packer.append(0x1ABCD, 17);
  packer.append((u64{1} << 44) - 2, 44);
  packer.append(0x5, 3);
  packer.append(0x1FFFFFFFFFFFFFF, 57);
  const auto bytes = packer.finish();
  EXPECT_EQ(bytes.size(), (7u + 17 + 44 + 3 + 57 + 7) / 8);
  BitUnpacker unpacker(bytes);
  EXPECT_EQ(unpacker.read(7), 0x55u);
  EXPECT_EQ(unpacker.read(17), 0x1ABCDu);
  EXPECT_EQ(unpacker.read(44), (u64{1} << 44) - 2);
  EXPECT_EQ(unpacker.read(3), 0x5u);
  EXPECT_EQ(unpacker.read(57), 0x1FFFFFFFFFFFFFFull);
  EXPECT_EQ(unpacker.bits_consumed(), 7u + 17 + 44 + 3 + 57);
}

TEST(BitPacker, PartialFinalByteIsZeroPadded) {
  // finish() zero-fills the high bits of the last byte; the documented
  // unpacker contract is that padding inside the final byte reads as
  // zeros, while the first read needing a byte past the end throws.
  BitPacker packer;
  packer.append(0b101, 3);
  const auto bytes = packer.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b101);
  BitUnpacker unpacker(bytes);
  EXPECT_EQ(unpacker.read(3), 0b101u);
  EXPECT_EQ(unpacker.read(5), 0u);  // padding bits of the final byte
  EXPECT_THROW(unpacker.read(1), InvalidArgument);
}

TEST(BitPacker, FinishResetsForReuse) {
  BitPacker packer;
  packer.append(0xFF, 8);
  packer.append(1, 1);
  (void)packer.finish();
  packer.append(0xAB, 8);
  const auto bytes = packer.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0xABu);
}

struct Fixture {
  std::shared_ptr<const CkksContext> ctx;
  CkksEncoder encoder;
  KeyGenerator keygen;
  SecretKey sk;
  Decryptor dec;

  Fixture()
      : ctx(CkksContext::create(CkksParams::test_small(10, 3))),
        encoder(ctx),
        keygen(ctx),
        sk(keygen.secret_key()),
        dec(ctx, sk) {}

  std::vector<std::complex<double>> message(u64 seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<std::complex<double>> msg(encoder.slots());
    for (auto& z : msg) z = {dist(rng), dist(rng)};
    return msg;
  }
};

TEST(Serialize, PublicKeyCiphertextRoundtrip) {
  Fixture f;
  Encryptor enc(f.ctx, f.keygen.public_key(f.sk));
  const auto msg = f.message(2);
  const Ciphertext ct = enc.encrypt(f.encoder.encode(msg, 3));
  const std::vector<u8> bytes = serialize_ciphertext(ct, 44);
  // Size = header + 2 components x 3 limbs x N x 44 bits.
  const std::size_t payload_bits = 2ull * 3 * f.ctx->n() * 44;
  EXPECT_NEAR(static_cast<double>(bytes.size()),
              static_cast<double>(payload_bits / 8), 64.0);
  const Ciphertext restored = deserialize_ciphertext(f.ctx, bytes);
  EXPECT_EQ(restored.limbs(), ct.limbs());
  EXPECT_DOUBLE_EQ(restored.scale, ct.scale);
  const auto decoded = f.encoder.decode(f.dec.decrypt(restored));
  EXPECT_GT(compare_slots(msg, decoded).precision_bits, 12.0);
}

TEST(Serialize, CompressedCiphertextRegeneratesC1) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const auto msg = f.message(3);
  const Ciphertext ct = enc.encrypt(f.encoder.encode(msg, 3));
  ASSERT_TRUE(ct.compressed_c1.has_value());
  const std::vector<u8> bytes = serialize_ciphertext(ct, 44);
  // Compressed form carries only one polynomial payload.
  const std::size_t one_poly_bits = 3ull * f.ctx->n() * 44;
  EXPECT_LT(bytes.size(), one_poly_bits / 8 + 128);
  const Ciphertext restored = deserialize_ciphertext(f.ctx, bytes);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(std::equal(restored.c(1).limb(l).begin(),
                           restored.c(1).limb(l).end(),
                           ct.c(1).limb(l).begin()));
  }
  const auto decoded = f.encoder.decode(f.dec.decrypt(restored));
  EXPECT_GT(compare_slots(msg, decoded).precision_bits, 12.0);
}

TEST(Serialize, CorruptBufferRejected) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const Ciphertext ct = enc.encrypt(f.encoder.encode(f.message(4), 2));
  std::vector<u8> bytes = serialize_ciphertext(ct, 44);
  bytes[0] ^= 0xff;  // break the magic
  EXPECT_THROW(deserialize_ciphertext(f.ctx, bytes), InvalidArgument);
  std::vector<u8> truncated(serialize_ciphertext(ct, 44));
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize_ciphertext(f.ctx, truncated), InvalidArgument);
}

TEST(Serialize, WidthTooNarrowRejected) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const Ciphertext ct = enc.encrypt(f.encoder.encode(f.message(5), 2));
  // 36-bit residues do not fit 20-bit packing.
  EXPECT_THROW(serialize_ciphertext(ct, 20), InvalidArgument);
}

TEST(Serialize, CiphertextBatchRoundtrip) {
  // The "ABCB" envelope: frames may mix levels and compression and must
  // come back bit-identical in input order.
  Fixture f;
  Encryptor sym(f.ctx, f.sk);
  Encryptor pub(f.ctx, f.keygen.public_key(f.sk));
  std::vector<Ciphertext> cts;
  cts.push_back(sym.encrypt(f.encoder.encode(f.message(6), 3)));
  cts.push_back(pub.encrypt(f.encoder.encode(f.message(7), 2)));
  cts.push_back(sym.encrypt(f.encoder.encode(f.message(8), 2)));

  const std::vector<u8> envelope = serialize_ciphertext_batch(cts, 44);
  // The container adds 8 bytes of header + 4 per frame over the frames.
  std::size_t frames = 0;
  for (const auto& ct : cts) frames += serialize_ciphertext(ct, 44).size();
  EXPECT_EQ(envelope.size(), 8 + 4 * cts.size() + frames);

  const std::vector<Ciphertext> restored =
      deserialize_ciphertext_batch(f.ctx, envelope);
  ASSERT_EQ(restored.size(), cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    ASSERT_EQ(restored[i].size(), cts[i].size());
    ASSERT_EQ(restored[i].limbs(), cts[i].limbs());
    EXPECT_DOUBLE_EQ(restored[i].scale, cts[i].scale);
    for (std::size_t c = 0; c < cts[i].size(); ++c) {
      for (std::size_t l = 0; l < cts[i].limbs(); ++l) {
        EXPECT_TRUE(std::equal(restored[i].c(c).limb(l).begin(),
                               restored[i].c(c).limb(l).end(),
                               cts[i].c(c).limb(l).begin()))
            << "item " << i << " component " << c << " limb " << l;
      }
    }
  }
}

TEST(Serialize, EmptyCiphertextBatchRoundtrips) {
  Fixture f;
  const std::vector<u8> envelope = serialize_ciphertext_batch({}, 44);
  EXPECT_EQ(envelope.size(), 8u);  // magic + count only
  EXPECT_TRUE(deserialize_ciphertext_batch(f.ctx, envelope).empty());
}

TEST(Serialize, CorruptCiphertextBatchRejected) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  std::vector<Ciphertext> cts;
  cts.push_back(enc.encrypt(f.encoder.encode(f.message(9), 2)));
  const std::vector<u8> good = serialize_ciphertext_batch(cts, 44);

  std::vector<u8> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, bad_magic),
               InvalidArgument);

  std::vector<u8> truncated = good;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, truncated),
               InvalidArgument);

  std::vector<u8> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, trailing),
               InvalidArgument);

  // A forged count with no frames behind it must be rejected up front
  // (InvalidArgument, not a giant allocation / bad_alloc).
  std::vector<u8> forged = {0x42, 0x43, 0x42, 0x41,   // "ABCB"
                            0xff, 0xff, 0xff, 0xff};  // count = 2^32 - 1
  EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, forged),
               InvalidArgument);
}

// -- one encoding per value --------------------------------------------------

TEST(Serialize, TrailingBytesAfterCiphertextOrKeyFrameRejected) {
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const std::vector<u8> ct =
      serialize_ciphertext(enc.encrypt(f.encoder.encode(f.message(10), 2)), 44);
  const std::vector<u8> pk =
      serialize_public_key(f.ctx, f.keygen.public_key(f.sk), 44);
  const std::vector<u8> rlk =
      serialize_key_switch_key(f.ctx, f.keygen.relin_key(f.sk).key, 44);
  ASSERT_NO_THROW(deserialize_ciphertext(f.ctx, ct));
  ASSERT_NO_THROW(deserialize_public_key(f.ctx, pk));
  ASSERT_NO_THROW(deserialize_key_switch_key(f.ctx, rlk));
  for (const std::size_t extra : {1u, 2u, 100u, 4096u}) {
    SCOPED_TRACE(extra);
    const auto padded = [extra](std::vector<u8> bytes) {
      bytes.resize(bytes.size() + extra, 0);
      return bytes;
    };
    EXPECT_THROW(deserialize_ciphertext(f.ctx, padded(ct)), InvalidArgument);
    EXPECT_THROW(deserialize_public_key(f.ctx, padded(pk)), InvalidArgument);
    EXPECT_THROW(deserialize_key_switch_key(f.ctx, padded(rlk)),
                 InvalidArgument);
  }
}

TEST(Serialize, BatchLengthPrefixCoveringJunkRejected) {
  // The frame's length prefix (bytes 8..11) raised by 3, with 3 junk bytes
  // behind the frame: the envelope adds up, the frame inside it does not.
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const std::vector<Ciphertext> cts{
      enc.encrypt(f.encoder.encode(f.message(11), 2))};
  std::vector<u8> bad = serialize_ciphertext_batch(cts, 44);
  u32 length = 0;
  for (int i = 0; i < 4; ++i) length |= u32{bad[8 + i]} << (8 * i);
  length += 3;
  for (int i = 0; i < 4; ++i) bad[8 + i] = static_cast<u8>(length >> (8 * i));
  bad.insert(bad.end(), {0xde, 0xad, 0xbe});
  EXPECT_THROW(deserialize_ciphertext_batch(f.ctx, bad), InvalidArgument);
}

TEST(Serialize, CompressedByteOutsideZeroOrOneRejected) {
  // The flag sits at byte 9 of an ABCF header and byte 6 of an ABCK
  // header; the key checksum mixes it as a bool, so only the reader's own
  // check tells 2 from 1.
  Fixture f;
  Encryptor enc(f.ctx, f.sk);
  const std::vector<u8> ct =
      serialize_ciphertext(enc.encrypt(f.encoder.encode(f.message(12), 2)), 44);
  const std::vector<u8> pk =
      serialize_public_key(f.ctx, f.keygen.public_key(f.sk), 44);
  const std::vector<u8> rlk =
      serialize_key_switch_key(f.ctx, f.keygen.relin_key(f.sk).key, 44);
  ASSERT_EQ(ct[9], 1);
  ASSERT_EQ(pk[6], 1);
  ASSERT_EQ(rlk[6], 1);
  for (const u8 flag : {u8{2}, u8{0x80}, u8{0xff}}) {
    SCOPED_TRACE(static_cast<int>(flag));
    std::vector<u8> bad = ct;
    bad[9] = flag;
    EXPECT_THROW(deserialize_ciphertext(f.ctx, bad), InvalidArgument);
    bad = pk;
    bad[6] = flag;
    EXPECT_THROW(deserialize_public_key(f.ctx, bad), InvalidArgument);
    bad = rlk;
    bad[6] = flag;
    EXPECT_THROW(deserialize_key_switch_key(f.ctx, bad), InvalidArgument);
  }
}

// -- serving-daemon framing --------------------------------------------------

TEST(RequestFrame, RoundTripPreservesEveryField) {
  RequestFrame req;
  req.tenant = 0xdeadbeefcafe;
  req.request_id = 42;
  req.op = 7;
  req.op_arg = -3;  // negative op_arg survives the u64 wire cast
  req.payload = {0x01, 0x00, 0xff, 0x7f};
  const std::vector<u8> bytes = serialize_request_frame(req);
  const RequestFrame back = deserialize_request_frame(bytes);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.op_arg, req.op_arg);
  EXPECT_EQ(back.payload, req.payload);
}

TEST(ResponseFrame, RoundTripPreservesEveryField) {
  ResponseFrame resp;
  resp.request_id = 7;
  resp.status = 5;
  resp.error = "every eligible run queue is at capacity";
  resp.payload = {0xaa, 0xbb};
  const std::vector<u8> bytes = serialize_response_frame(resp);
  const ResponseFrame back = deserialize_response_frame(bytes);
  EXPECT_EQ(back.request_id, resp.request_id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.error, resp.error);
  EXPECT_EQ(back.payload, resp.payload);

  // Empty error and payload are valid frames too.
  const ResponseFrame empty =
      deserialize_response_frame(serialize_response_frame(ResponseFrame{}));
  EXPECT_TRUE(empty.error.empty());
  EXPECT_TRUE(empty.payload.empty());
}

TEST(RequestFrame, EveryTruncationAndTrailingByteRejected) {
  RequestFrame req;
  req.tenant = 1;
  req.request_id = 2;
  req.op = 1;
  req.payload = {1, 2, 3, 4, 5};
  const std::vector<u8> good = serialize_request_frame(req);
  ASSERT_NO_THROW(deserialize_request_frame(good));
  // The whole prefix lattice: every strict prefix is a truncation.
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<u8> prefix(good.begin(),
                           good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(deserialize_request_frame(prefix), InvalidArgument)
        << "prefix " << len;
  }
  std::vector<u8> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_request_frame(trailing), InvalidArgument);
  std::vector<u8> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(deserialize_request_frame(bad_magic), InvalidArgument);
}

TEST(RequestFrame, ForgedPayloadLengthRejectedBeforeAllocation) {
  RequestFrame req;
  req.payload = {1, 2, 3};
  std::vector<u8> bytes = serialize_request_frame(req);
  // The payload length prefix is the last 4-byte field before the bytes;
  // forge it to claim ~4 GiB backed by 3 actual bytes.
  const std::size_t len_at = bytes.size() - req.payload.size() - 4;
  for (std::size_t i = 0; i < 4; ++i) bytes[len_at + i] = 0xff;
  EXPECT_THROW(deserialize_request_frame(bytes), InvalidArgument);
}

TEST(ResponseFrame, OversizedErrorStringRejectedBothDirections) {
  ResponseFrame resp;
  resp.error.assign((64u << 10) + 1, 'x');  // one byte over the wire bound
  EXPECT_THROW(serialize_response_frame(resp), InvalidArgument);
  resp.error.resize(64u << 10);
  const std::vector<u8> bytes = serialize_response_frame(resp);
  EXPECT_EQ(deserialize_response_frame(bytes).error.size(), 64u << 10);
}

TEST(KeyBundleFrames, RoundTripAndForgedCountRejected) {
  KeyBundleFrames bundle;
  bundle.public_key = {1, 2, 3};
  bundle.relin_key = {4, 5};
  bundle.galois_keys = {{6}, {}, {7, 8, 9}};
  const std::vector<u8> good = serialize_key_bundle(bundle);
  const KeyBundleFrames back = deserialize_key_bundle(good);
  EXPECT_EQ(back.public_key, bundle.public_key);
  EXPECT_EQ(back.relin_key, bundle.relin_key);
  EXPECT_EQ(back.galois_keys, bundle.galois_keys);

  // Forged Galois count far beyond the remaining bytes: rejected up
  // front, before any reserve.
  std::vector<u8> forged = good;
  for (std::size_t i = 4; i < 8; ++i) forged[i] = 0xff;
  EXPECT_THROW(deserialize_key_bundle(forged), InvalidArgument);

  std::vector<u8> truncated = good;
  truncated.pop_back();
  EXPECT_THROW(deserialize_key_bundle(truncated), InvalidArgument);
  std::vector<u8> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_key_bundle(trailing), InvalidArgument);
}

}  // namespace
}  // namespace abc::ckks
