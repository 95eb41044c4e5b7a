#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "common/status.h"
#include "crypto/cipher.h"
#include "crypto/sha256.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::HexEncode;
using common::StatusCode;
using common::ToBytes;

TEST(AuthCipherTest, SealOpenRoundTrip) {
  AuthCipher cipher(ToBytes("shared secret"));
  Bytes plaintext = ToBytes("sensor reading batch #42");
  Bytes sealed = cipher.Seal(plaintext, ToBytes("nonce-1"));
  auto opened = cipher.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AuthCipherTest, EmptyPlaintext) {
  AuthCipher cipher(ToBytes("k"));
  Bytes sealed = cipher.Seal({}, ToBytes("n"));
  auto opened = cipher.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST(AuthCipherTest, LargePayloadRoundTrip) {
  common::Rng rng(1);
  AuthCipher cipher(rng.NextBytes(32));
  Bytes plaintext = rng.NextBytes(100000);
  Bytes sealed = cipher.Seal(plaintext, rng.NextBytes(16));
  auto opened = cipher.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AuthCipherTest, TamperedCiphertextRejected) {
  AuthCipher cipher(ToBytes("key"));
  Bytes sealed = cipher.Seal(ToBytes("payload"), ToBytes("n"));
  for (size_t i = 0; i < sealed.size(); i += 7) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    auto opened = cipher.Open(tampered);
    EXPECT_FALSE(opened.ok()) << "byte " << i;
    EXPECT_EQ(opened.status().code(), StatusCode::kUnauthenticated);
  }
}

TEST(AuthCipherTest, TruncatedBlobRejectedAsCorruption) {
  AuthCipher cipher(ToBytes("key"));
  Bytes tiny = {1, 2, 3};
  auto opened = cipher.Open(tiny);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST(AuthCipherTest, WrongKeyRejected) {
  AuthCipher alice(ToBytes("alice key"));
  AuthCipher mallory(ToBytes("mallory key"));
  Bytes sealed = alice.Seal(ToBytes("secret"), ToBytes("n"));
  EXPECT_FALSE(mallory.Open(sealed).ok());
}

TEST(AuthCipherTest, DistinctNoncesGiveDistinctCiphertexts) {
  AuthCipher cipher(ToBytes("key"));
  Bytes p = ToBytes("same plaintext");
  Bytes s1 = cipher.Seal(p, ToBytes("nonce-a"));
  Bytes s2 = cipher.Seal(p, ToBytes("nonce-b"));
  EXPECT_NE(s1, s2);
  EXPECT_EQ(*cipher.Open(s1), p);
  EXPECT_EQ(*cipher.Open(s2), p);
}

TEST(AuthCipherTest, CiphertextHidesPlaintextPatterns) {
  AuthCipher cipher(ToBytes("key"));
  Bytes zeros(1024, 0x00);
  Bytes sealed = cipher.Seal(zeros, ToBytes("n"));
  // Keystream output should look random: count zero bytes in the body.
  int zero_count = 0;
  for (size_t i = 16; i < 16 + 1024; ++i) {
    if (sealed[i] == 0) ++zero_count;
  }
  EXPECT_LT(zero_count, 24);  // ~4 expected for uniform bytes
}

// Golden bytes of the SHA-CTR construction, recorded with the portable
// SHA-256 compression and reproduced independently with Python's hashlib
// and hmac modules. The keystream has no external known-answer test, so
// these pin its exact output: any change to the hash kernel, the counter
// encoding or the framing shows up here.
Bytes Pattern(size_t n) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 31 + 7);
  return out;
}

TEST(AuthCipherGoldenTest, SealShortPayloads) {
  const AuthCipher cipher(ToBytes("golden key"));
  const Bytes nonce_seed = ToBytes("golden nonce");
  const struct {
    size_t len;
    const char* hex;
  } kCases[] = {
      {0,
       "a183fd26ae54eba93e4d4ea6b55b227dfe9a9a4d00a8abd3ed7aaa262006f61c"
       "6fae8154d7bfbcc85e60aea19fe153cf"},
      {1,
       "a183fd26ae54eba93e4d4ea6b55b227d320f19b9fa9dc91162ac0a6519560097"
       "b7dc25b51563e616f47e6b4b0392d53f2a"},
      {31,
       "a183fd26ae54eba93e4d4ea6b55b227d32548dff55ae8ed6043d25908ffa7bbc"
       "25f92effabb3302b0fa41bfea360ee864327adab6fd3d6160e9467d4c62bee36"
       "6da3051ccf307f02865592ed2cdf46"},
      {32,
       "a183fd26ae54eba93e4d4ea6b55b227d32548dff55ae8ed6043d25908ffa7bbc"
       "25f92effabb3302b0fa41bfea360ee8849f547382f58791221191b66dfd57dc8"
       "e4baad842be2ff922ef37e10124c3bb4"},
      {33,
       "a183fd26ae54eba93e4d4ea6b55b227d32548dff55ae8ed6043d25908ffa7bbc"
       "25f92effabb3302b0fa41bfea360ee883ac33c21c812e78bb477b4a9b5674e58"
       "7c84ea3be65361b623a4e85e8f89035b48"},
  };
  for (const auto& c : kCases) {
    const Bytes sealed = cipher.Seal(Pattern(c.len), nonce_seed);
    EXPECT_EQ(HexEncode(sealed), c.hex) << "len=" << c.len;
    EXPECT_EQ(*cipher.Open(sealed), Pattern(c.len)) << "len=" << c.len;
  }
}

TEST(AuthCipherGoldenTest, SealTenKibPayload) {
  // 10 KiB is the lifecycle dataset size. The head (nonce and the first two
  // keystream blocks), the tail (last keystream bytes and the tag) and a
  // digest of the whole blob are pinned.
  const AuthCipher cipher(ToBytes("golden key"));
  const Bytes sealed = cipher.Seal(Pattern(10240), ToBytes("golden nonce"));
  ASSERT_EQ(sealed.size(), 16u + 10240u + 32u);
  EXPECT_EQ(HexEncode(Bytes(sealed.begin(), sealed.begin() + 80)),
            "a183fd26ae54eba93e4d4ea6b55b227d32548dff55ae8ed6043d25908ffa7bbc"
            "25f92effabb3302b0fa41bfea360ee883adc9470ffef81d7f1726062f35b7af9"
            "9ac2a9977d45847d6bbaf90a93009c83");
  EXPECT_EQ(HexEncode(Bytes(sealed.end() - 64, sealed.end())),
            "8e923f158c8213d218ea77a615623dbe05b0a0fa63220a5b4b06345a649929de"
            "bbabfcf5ff8fde9a3f5412f5108c64cd81894620091cf3ed9d077857451a1428");
  EXPECT_EQ(HexEncode(Sha256::Hash(sealed)),
            "c53224d845d3b44e9a8932692527112a34267c83b1752b0fac2796097d5aa2f1");
}

TEST(AuthCipherGoldenTest, DeriveKeyHundredBytes) {
  EXPECT_EQ(HexEncode(DeriveKey(ToBytes("golden master"), "pds2.golden", 100)),
            "f30d826d6992334ea06dfb4af329fffb5ae0c129fc23ea3fd6e3965373860352"
            "95dd64a31b8042714dffea68bf8a8df9ae82728a90cda9c21ff848076da84f5e"
            "b42876a038de757a4ff7b9425be5dd78c0187e06ded5b497776f5ec2a832d66f"
            "b834fe36");
}

}  // namespace
}  // namespace pds2::crypto
