#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::HexEncode;
using common::Rng;
using common::ToBytes;
using internal::Sha256CompressFn;

TEST(Sha256Test, EmptyStringKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAKat) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the provider signs each reading before upload";
  Sha256 h;
  for (char c : msg) h.Update(std::string_view(&c, 1));
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

TEST(Sha256Test, BoundaryLengthsAroundBlockSize) {
  // Exercise the padding logic at every length near the 64-byte block
  // boundary; digests must be distinct and stable across chunkings.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 0x5a);
    Bytes one_shot = Sha256::Hash(msg);
    Sha256 h;
    h.Update(msg.data(), len / 2);
    h.Update(msg.data() + len / 2, len - len / 2);
    EXPECT_EQ(h.Finish(), one_shot) << "len=" << len;
  }
}

TEST(Sha256Test, AvalancheOnSingleBitFlip) {
  Bytes a(32, 0);
  Bytes b = a;
  b[0] ^= 1;
  Bytes ha = Sha256::Hash(a);
  Bytes hb = Sha256::Hash(b);
  int differing_bits = 0;
  for (size_t i = 0; i < ha.size(); ++i) {
    differing_bits += __builtin_popcount(ha[i] ^ hb[i]);
  }
  // ~128 expected; anything above 80 shows strong diffusion.
  EXPECT_GT(differing_bits, 80);
}

TEST(Sha256Test, Hash2ConcatenatesInputs) {
  Bytes a = ToBytes("left");
  Bytes b = ToBytes("right");
  Bytes cat = a;
  common::Append(cat, b);
  EXPECT_EQ(Sha256::Hash2(a, b), Sha256::Hash(cat));
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      HexEncode(HmacSha256(ToBytes("Jefe"),
                           ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes long_key(200, 0xaa);
  Bytes msg = ToBytes("data");
  // Must not crash and must differ from using the raw truncated key.
  Bytes mac1 = HmacSha256(long_key, msg);
  Bytes truncated(long_key.begin(), long_key.begin() + 64);
  Bytes mac2 = HmacSha256(truncated, msg);
  EXPECT_NE(mac1, mac2);
}

TEST(HmacTest, KeySeparation) {
  Bytes msg = ToBytes("same message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), msg), HmacSha256(ToBytes("key2"), msg));
}

TEST(DeriveKeyTest, ProducesRequestedLength) {
  Bytes key = ToBytes("master");
  EXPECT_EQ(DeriveKey(key, "ctx", 16).size(), 16u);
  EXPECT_EQ(DeriveKey(key, "ctx", 32).size(), 32u);
  EXPECT_EQ(DeriveKey(key, "ctx", 100).size(), 100u);
}

TEST(DeriveKeyTest, ContextSeparation) {
  Bytes key = ToBytes("master");
  EXPECT_NE(DeriveKey(key, "enc", 32), DeriveKey(key, "mac", 32));
}

TEST(DeriveKeyTest, PrefixConsistency) {
  // Longer outputs extend shorter ones (counter-mode expansion).
  Bytes key = ToBytes("master");
  Bytes short_out = DeriveKey(key, "ctx", 16);
  Bytes long_out = DeriveKey(key, "ctx", 64);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

// --- Compression kernels against each other -------------------------------
//
// The portable compression is the reference. ReferenceHash pads and
// compresses with it alone, one block at a time, so it shares no code with
// Sha256::Update's buffering or Finish's padding.

Bytes ReferenceHash(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bit_len = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bit_len >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t off = 0; off < padded.size(); off += 64) {
    internal::Sha256CompressPortable(state, padded.data() + off, 1);
  }
  Bytes digest(kSha256DigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return digest;
}

TEST(Sha256KernelTest, ReferenceHashMatchesKats) {
  // Pins the portable kernel itself to FIPS 180-4 vectors (one and two
  // blocks), independent of the kernel Sha256 happens to select.
  EXPECT_EQ(HexEncode(ReferenceHash(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(ReferenceHash(ToBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256KernelTest, SelectedKernelIsHardwareWhenAvailable) {
  const Sha256CompressFn hardware = internal::Sha256CompressHardware();
  EXPECT_EQ(internal::Sha256Compress(),
            hardware != nullptr ? hardware : &internal::Sha256CompressPortable);
}

TEST(Sha256KernelTest, HardwareMatchesPortableOnRandomBlocks) {
  const Sha256CompressFn hardware = internal::Sha256CompressHardware();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(0x5eed);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t nblocks = 1 + rng.NextU64(8);
    const Bytes blocks = rng.NextBytes(64 * nblocks);
    uint32_t portable[8];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng.NextU64());
    uint32_t hw[8];
    std::memcpy(hw, portable, sizeof(hw));
    internal::Sha256CompressPortable(portable, blocks.data(), nblocks);
    hardware(hw, blocks.data(), nblocks);
    ASSERT_TRUE(std::equal(portable, portable + 8, hw))
        << "trial " << trial << ", " << nblocks << " blocks";
  }
}

TEST(Sha256KernelTest, HardwareMatchesPortableOnUnalignedInput) {
  const Sha256CompressFn hardware = internal::Sha256CompressHardware();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(11);
  const Bytes buf = rng.NextBytes(64 * 4 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    uint32_t portable[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint32_t hw[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    internal::Sha256CompressPortable(portable, buf.data() + offset, 4);
    hardware(hw, buf.data() + offset, 4);
    EXPECT_TRUE(std::equal(portable, portable + 8, hw)) << "offset " << offset;
  }
}

TEST(Sha256KernelTest, PublicApiMatchesReferenceOnRandomSplits) {
  // Random lengths 0..4096 fed through random Update splits: covers the
  // direct multi-block path, partial-buffer refills, the buffered tail and
  // Finish's one- and two-block padding.
  Rng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t len = rng.NextU64(4097);
    const Bytes msg = rng.NextBytes(len);
    Sha256 h;
    size_t pos = 0;
    while (pos < len) {
      const size_t chunk = std::min<size_t>(len - pos, rng.NextU64(300));
      h.Update(msg.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(h.Finish(), ReferenceHash(msg)) << "trial " << trial
                                               << ", len " << len;
  }
}

TEST(Sha256KernelTest, PublicApiMatchesReferenceAtEveryShortLength) {
  Rng rng(7);
  for (size_t len = 0; len <= 200; ++len) {
    const Bytes msg = rng.NextBytes(len);
    EXPECT_EQ(Sha256::Hash(msg), ReferenceHash(msg)) << "len " << len;
  }
}

}  // namespace
}  // namespace pds2::crypto
