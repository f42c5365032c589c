// Golden wire bytes: FNV-1a digests of every residue-carrying wire format,
// pinned so that a change to the residue packing, the encrypt datapath or
// the kernels under them cannot move a single output byte unnoticed. The
// KeySwitchGolden suite pins the residues of relinearized and rotated
// ciphertexts the same way.
//
// Plaintexts are built from integer coefficients (no FP encode), so the
// digests depend only on the PRNG streams, the exact modular kernels and
// the packing layout. Every digest is recomputed on each selectable kernel
// tier: the encrypt combines dispatch on the tier, and a tier whose output
// differs by one residue changes the digest.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serialize.hpp"
#include "simd/simd_caps.hpp"

namespace abc::ckks {
namespace {

u64 fnv1a(std::span<const u8> bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A coefficient-domain plaintext with a fixed signed pattern spanning
/// both signs and magnitudes up to ~2^40.
Plaintext pattern_plaintext(const CkksContext& ctx, std::size_t limbs,
                            u64 salt) {
  std::vector<i64> coeffs(ctx.n());
  u64 x = 0x9e3779b97f4a7c15ull ^ salt;
  for (i64& c : coeffs) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<i64>(x >> 23) - (i64{1} << 40);
  }
  Plaintext pt{ctx.make_poly(limbs, poly::Domain::kCoeff), 0x1p30};
  pt.poly.set_from_signed(coeffs);
  return pt;
}

std::vector<simd::KernelArch> selectable_tiers() {
  std::vector<simd::KernelArch> tiers{simd::KernelArch::kPortable};
  if (simd::avx2_selectable()) tiers.push_back(simd::KernelArch::kAvx2);
  if (simd::avx512ifma_selectable()) {
    tiers.push_back(simd::KernelArch::kAvx512Ifma);
  }
  return tiers;
}

struct ArchGuard {
  ~ArchGuard() {
    simd::set_kernel_arch_for_testing(simd::detected_kernel_arch());
  }
};

struct Golden {
  const char* name;
  u64 digest;
};

/// Digests of every small-parameter wire format, computed from scratch
/// (fresh context, so secret and stream ids restart at zero).
std::vector<Golden> small_digests() {
  auto ctx = CkksContext::create(CkksParams::test_small(10, 3));
  KeyGenerator kg(ctx);
  const SecretKey sk = kg.secret_key();
  const PublicKey pk = kg.public_key(sk);
  const RelinKey rlk = kg.relin_key(sk);
  const KeySwitchKey gk = kg.galois_key(sk, 1);

  Encryptor sym(ctx, sk);
  Encryptor pub(ctx, pk);
  const Ciphertext sym_ct = sym.encrypt(pattern_plaintext(*ctx, 3, 1));
  const Ciphertext pk_ct = pub.encrypt(pattern_plaintext(*ctx, 3, 2));
  // Mixed levels, compressed and explicit c1 in one envelope.
  const std::vector<Ciphertext> batch{
      sym.encrypt(pattern_plaintext(*ctx, 3, 3)),
      sym.encrypt(pattern_plaintext(*ctx, 2, 4)),
      pub.encrypt(pattern_plaintext(*ctx, 1, 5))};

  KeyBundleFrames frames;
  frames.public_key = serialize_public_key(ctx, pk);
  frames.relin_key = serialize_key_switch_key(ctx, rlk.key);
  frames.galois_keys.push_back(serialize_key_switch_key(ctx, gk));

  return {
      {"symmetric ciphertext", fnv1a(serialize_ciphertext(sym_ct))},
      {"public-key ciphertext", fnv1a(serialize_ciphertext(pk_ct))},
      {"ciphertext batch", fnv1a(serialize_ciphertext_batch(batch))},
      {"relin key, compressed", fnv1a(frames.relin_key)},
      {"relin key, full",
       fnv1a(serialize_key_switch_key(ctx, rlk.key, 44, false))},
      {"galois key, compressed", fnv1a(frames.galois_keys.front())},
      {"galois key, full", fnv1a(serialize_key_switch_key(ctx, gk, 44, false))},
      {"public key, compressed", fnv1a(frames.public_key)},
      {"public key, full", fnv1a(serialize_public_key(ctx, pk, 44, false))},
      {"key bundle", fnv1a(serialize_key_bundle(frames))},
      {"resident galois b halves",
       fnv1a(compress_key_switch_key(ctx, gk).packed_b)},
  };
}

void expect_digests(const std::vector<Golden>& got,
                    const std::vector<Golden>& want, simd::KernelArch arch) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].digest, want[i].digest)
        << want[i].name << " on tier " << static_cast<int>(arch)
        << ": got 0x" << std::hex << got[i].digest;
  }
}

TEST(WireGolden, SmallParameterFormatsMatchOnEveryTier) {
  const std::vector<Golden> want = {
      {"symmetric ciphertext", 0x49c3804c121f8efbull},
      {"public-key ciphertext", 0x5fe4ec2be770727eull},
      {"ciphertext batch", 0x072d255c684f5aa4ull},
      {"relin key, compressed", 0xb6da238dcfc1c897ull},
      {"relin key, full", 0xda26816c252e6e56ull},
      {"galois key, compressed", 0x8c9171441d694532ull},
      {"galois key, full", 0xedd025589fdd4eaeull},
      {"public key, compressed", 0xb4bfe15b6ab46b81ull},
      {"public key, full", 0xa881eb59ee36424full},
      {"key bundle", 0x6da804c1bd5cec9dull},
      {"resident galois b halves", 0xb01eaecf8a102fc5ull},
  };
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_tiers()) {
    simd::set_kernel_arch_for_testing(arch);
    expect_digests(small_digests(), want, arch);
  }
}

// -- key-switch outputs -------------------------------------------------------

/// FNV-1a over every residue of every component, in limb order.
u64 residue_digest(const Ciphertext& ct) {
  u64 h = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < ct.size(); ++c) {
    for (std::size_t l = 0; l < ct.c(c).limbs(); ++l) {
      const std::span<const u64> limb = ct.c(c).limb(l);
      const std::span<const u8> bytes(
          reinterpret_cast<const u8*>(limb.data()), limb.size_bytes());
      h ^= fnv1a(bytes);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Relinearized square and rotations by +1 and -1 of one symmetric
/// ciphertext at level L-1 (the highest switchable level), from a fresh
/// context so the secret and stream ids restart at zero.
std::vector<Golden> keyswitch_digests(const CkksParams& params) {
  auto ctx = CkksContext::create(params);
  KeyGenerator kg(ctx);
  const SecretKey sk = kg.secret_key();
  const RelinKey rlk = kg.relin_key(sk);
  const std::vector<int> steps{1, -1};
  const GaloisKeys gks = kg.galois_keys(sk, steps);
  Encryptor enc(ctx, sk);
  const Ciphertext ct =
      enc.encrypt(pattern_plaintext(*ctx, ctx->max_limbs() - 1, 11));

  const Evaluator eval(ctx);
  Ciphertext square = eval.mul(ct, ct);
  eval.relinearize_inplace(square, rlk);
  return {
      {"relin of ct*ct", residue_digest(square)},
      {"rotate +1", residue_digest(eval.rotate(ct, 1, gks))},
      {"rotate -1", residue_digest(eval.rotate(ct, -1, gks))},
  };
}

TEST(KeySwitchGolden, SmallParameterOutputsMatchOnEveryTier) {
  const std::vector<Golden> want = {
      {"relin of ct*ct", 0xdf6d6257a0f47127ull},
      {"rotate +1", 0x875e47fe54bc26f5ull},
      {"rotate -1", 0x75fbb6a614173aebull},
  };
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_tiers()) {
    simd::set_kernel_arch_for_testing(arch);
    expect_digests(keyswitch_digests(CkksParams::test_small(10, 3)), want,
                   arch);
  }
}

TEST(KeySwitchGolden, SweepPointOutputsMatchOnEveryTier) {
  const std::vector<Golden> want = {
      {"relin of ct*ct", 0xa7a25c2467d3df58ull},
      {"rotate +1", 0x7136d658cc422fedull},
      {"rotate -1", 0xbfc0cfd8fc1a2757ull},
  };
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_tiers()) {
    simd::set_kernel_arch_for_testing(arch);
    expect_digests(keyswitch_digests(CkksParams::sweep_point(13, 6)), want,
                   arch);
  }
}

TEST(WireGolden, BootstrappableSymmetricCiphertextMatchesOnEveryTier) {
  ArchGuard guard;
  for (simd::KernelArch arch : selectable_tiers()) {
    simd::set_kernel_arch_for_testing(arch);
    // A fresh context per tier restarts the secret and stream ids.
    auto ctx = CkksContext::create(CkksParams::bootstrappable());
    KeyGenerator kg(ctx);
    Encryptor enc(ctx, kg.secret_key());
    const Ciphertext ct =
        enc.encrypt(pattern_plaintext(*ctx, ctx->max_limbs(), 7));
    expect_digests({{"bootstrappable ciphertext",
                     fnv1a(serialize_ciphertext(ct))}},
                   {{"bootstrappable ciphertext", 0x3f02c20b4d899363ull}}, arch);
  }
}

// -- run (de)packing vs the per-word reference -------------------------------

constexpr int kRunWidths[] = {1, 7, 8, 36, 44, 57};

/// Packs a @p offset-bit prefix, then @p values, then a 3-bit trailer, one
/// word at a time or as one run; both must emit the same bytes.
std::vector<u8> pack_framed(const std::vector<u64>& values, int bits,
                            int offset, bool as_run) {
  BitPacker packer;
  if (offset > 0) packer.append((u64{1} << offset) - 1, offset);
  if (as_run) {
    packer.append_run(values, bits);
  } else {
    for (u64 v : values) packer.append(v, bits);
  }
  packer.append(0b101, 3);
  return packer.finish();
}

TEST(WireGolden, RunPackerMatchesPerWordPackerAtEveryOffset) {
  std::mt19937_64 rng(44);
  for (int bits : kRunWidths) {
    const u64 mask = (u64{1} << bits) - 1;
    for (int offset = 0; offset < 8; ++offset) {
      // Short runs live entirely in the byte tail; long ones cross many
      // 8-byte stores.
      for (std::size_t count : {0, 1, 2, 5, 9, 64, 333}) {
        std::vector<u64> values(count);
        for (u64& v : values) v = rng() & mask;
        if (count > 0) values.back() = mask;  // all-ones final word
        const std::vector<u8> want = pack_framed(values, bits, offset, false);
        EXPECT_EQ(pack_framed(values, bits, offset, true), want)
            << "bits " << bits << " offset " << offset << " count " << count;

        // The presized form writes the same bytes into a caller's span.
        std::vector<u8> presized(want.size());
        BitPacker packer(presized);
        if (offset > 0) packer.append((u64{1} << offset) - 1, offset);
        packer.append_run(values, bits);
        packer.append(0b101, 3);
        EXPECT_TRUE(packer.finish().empty());
        EXPECT_EQ(presized, want);
      }
    }
  }
}

TEST(WireGolden, RunUnpackerMatchesPerWordUnpackerAtEveryOffset) {
  std::mt19937_64 rng(45);
  for (int bits : kRunWidths) {
    const u64 mask = (u64{1} << bits) - 1;
    for (int offset = 0; offset < 8; ++offset) {
      for (std::size_t count : {0, 1, 2, 5, 9, 64, 333}) {
        std::vector<u64> values(count);
        for (u64& v : values) v = rng() & mask;
        const std::vector<u8> bytes = pack_framed(values, bits, offset, false);

        BitUnpacker word(bytes);
        BitUnpacker run(bytes);
        if (offset > 0) {
          (void)word.read(offset);
          (void)run.read(offset);
        }
        std::vector<u64> got(count);
        run.read_run(got, bits, mask + 1);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], word.read(bits))
              << "bits " << bits << " offset " << offset << " word " << i;
        }
        EXPECT_EQ(got, values);
        EXPECT_EQ(run.bits_consumed(), word.bits_consumed());
        EXPECT_EQ(run.read(3), 0b101u);
      }
    }
  }
}

TEST(WireGolden, RunChecksWidthTruncationAndRangeOncePerRun) {
  BitPacker packer;
  const std::vector<u64> too_wide{1, 2, u64{1} << 9};
  EXPECT_THROW(packer.append_run(too_wide, 9), InvalidArgument);
  BitPacker capped;
  EXPECT_THROW(capped.append_run(too_wide, 58), InvalidArgument);

  const std::vector<u64> values{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  BitPacker ok;
  ok.append_run(values, 44);
  const std::vector<u8> bytes = ok.finish();
  std::vector<u64> out(values.size());
  {
    BitUnpacker u(bytes);
    u.read_run(out, 44, 10);
    EXPECT_EQ(out, values);
  }
  {
    // The one out-of-range word is the last one: raised after the run.
    BitUnpacker u(bytes);
    EXPECT_THROW(u.read_run(out, 44, 5), InvalidArgument);
  }
  {
    // One word more than the span holds is rejected before any read.
    std::vector<u64> longer(values.size() + 1);
    BitUnpacker u(bytes);
    EXPECT_THROW(u.read_run(longer, 44, 10), InvalidArgument);
    EXPECT_EQ(u.bits_consumed(), 0u);
  }
  // A presized span the words do not fill exactly is a writer bug.
  std::vector<u8> roomy(bytes.size() + 1);
  BitPacker loose(roomy);
  loose.append_run(values, 44);
  EXPECT_THROW(loose.finish(), LogicError);
}

}  // namespace
}  // namespace abc::ckks
