#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/schnorr.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;

TEST(Fe25519Test, AddSubRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    EXPECT_TRUE(Fe25519::Sub(Fe25519::Add(a, b), b).Equals(a));
  }
}

TEST(Fe25519Test, MulCommutativeAndAssociative) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 c = Fe25519::FromBytes(rng.NextBytes(32));
    EXPECT_TRUE(Fe25519::Mul(a, b).Equals(Fe25519::Mul(b, a)));
    EXPECT_TRUE(Fe25519::Mul(Fe25519::Mul(a, b), c)
                    .Equals(Fe25519::Mul(a, Fe25519::Mul(b, c))));
  }
}

TEST(Fe25519Test, MulDistributesOverAdd) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 c = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 lhs = Fe25519::Mul(a, Fe25519::Add(b, c));
    Fe25519 rhs = Fe25519::Add(Fe25519::Mul(a, b), Fe25519::Mul(a, c));
    EXPECT_TRUE(lhs.Equals(rhs));
  }
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    if (a.IsZero()) continue;
    Fe25519 prod = Fe25519::Mul(a, Fe25519::Invert(a));
    EXPECT_TRUE(prod.Equals(Fe25519::FromU64(1)));
  }
}

TEST(Fe25519Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Bytes b = rng.NextBytes(32);
    b[31] &= 0x3f;  // keep the value comfortably below p
    Fe25519 fe = Fe25519::FromBytes(b);
    EXPECT_EQ(fe.ToBytes(), b);
  }
}

TEST(Fe25519Test, CanonicalReductionOfP) {
  // p itself must encode as zero.
  Bytes p_bytes(32, 0xff);
  p_bytes[0] = 0xed;
  p_bytes[31] = 0x7f;
  Fe25519 fe = Fe25519::FromBytes(p_bytes);
  EXPECT_TRUE(fe.IsZero());
}

TEST(EdPointTest, BasePointIsOnCurveAndHasGroupOrder) {
  const EdPoint& base = EdPoint::Base();
  Fe25519 x, y;
  base.ToAffine(&x, &y);
  EXPECT_TRUE(EdPoint::OnCurve(x, y));
  EXPECT_FALSE(base.IsIdentity());
  // l * B must be the identity.
  EdPoint lB = EdPoint::ScalarMul(EdPoint::GroupOrder(), base);
  EXPECT_TRUE(lB.IsIdentity());
}

TEST(EdPointTest, AdditionMatchesScalarMultiples) {
  const EdPoint& base = EdPoint::Base();
  EdPoint two_b = EdPoint::Add(base, base);
  EXPECT_TRUE(two_b.Equals(EdPoint::Double(base)));
  EXPECT_TRUE(two_b.Equals(EdPoint::ScalarBaseMul(BigUint(2))));
  EdPoint five_b = EdPoint::ScalarBaseMul(BigUint(5));
  EdPoint sum = EdPoint::Add(EdPoint::ScalarBaseMul(BigUint(2)),
                             EdPoint::ScalarBaseMul(BigUint(3)));
  EXPECT_TRUE(sum.Equals(five_b));
}

TEST(EdPointTest, IdentityIsNeutral) {
  const EdPoint& base = EdPoint::Base();
  EXPECT_TRUE(EdPoint::Add(base, EdPoint::Identity()).Equals(base));
  EXPECT_TRUE(EdPoint::ScalarBaseMul(BigUint()).IsIdentity());
}

TEST(EdPointTest, ScalarMulIsHomomorphic) {
  Rng rng(6);
  BigUint a = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  BigUint b = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  const BigUint sum = a.Add(b).Mod(EdPoint::GroupOrder());
  EdPoint lhs = EdPoint::ScalarBaseMul(sum);
  EdPoint rhs =
      EdPoint::Add(EdPoint::ScalarBaseMul(a), EdPoint::ScalarBaseMul(b));
  EXPECT_TRUE(lhs.Equals(rhs));
}

TEST(EdPointTest, EncodeDecodeRoundTrip) {
  EdPoint p = EdPoint::ScalarBaseMul(BigUint(12345));
  Bytes enc = p.Encode();
  ASSERT_EQ(enc.size(), 64u);
  auto decoded = EdPoint::Decode(enc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Equals(p));
}

TEST(EdPointTest, DecodeRejectsOffCurvePoints) {
  Bytes bad(64, 0x07);
  EXPECT_FALSE(EdPoint::Decode(bad).ok());
  EXPECT_FALSE(EdPoint::Decode(Bytes(10, 0)).ok());
}

TEST(SchnorrTest, SignVerifyRoundTrip) {
  Rng rng(7);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("transfer 100 tokens to provider 7");
  Bytes sig = key.Sign(msg);
  EXPECT_EQ(sig.size(), kSignatureSize);
  EXPECT_TRUE(VerifySignature(key.PublicKey(), msg, sig).ok());
}

TEST(SchnorrTest, DeterministicSignatures) {
  SigningKey key = SigningKey::FromSeed(ToBytes("device-001"));
  Bytes msg = ToBytes("reading");
  EXPECT_EQ(key.Sign(msg), key.Sign(msg));
}

TEST(SchnorrTest, SeedGivesStableIdentity) {
  SigningKey k1 = SigningKey::FromSeed(ToBytes("device-001"));
  SigningKey k2 = SigningKey::FromSeed(ToBytes("device-001"));
  SigningKey k3 = SigningKey::FromSeed(ToBytes("device-002"));
  EXPECT_EQ(k1.PublicKey(), k2.PublicKey());
  EXPECT_NE(k1.PublicKey(), k3.PublicKey());
}

TEST(SchnorrTest, TamperedMessageRejected) {
  Rng rng(8);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("pay 10");
  Bytes sig = key.Sign(msg);
  EXPECT_FALSE(VerifySignature(key.PublicKey(), ToBytes("pay 99"), sig).ok());
}

TEST(SchnorrTest, TamperedSignatureRejected) {
  Rng rng(9);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("msg");
  Bytes sig = key.Sign(msg);
  for (size_t i = 0; i < sig.size(); i += 11) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, bad).ok()) << i;
  }
}

TEST(SchnorrTest, WrongKeyRejected) {
  Rng rng(10);
  SigningKey alice = SigningKey::Generate(rng);
  SigningKey bob = SigningKey::Generate(rng);
  Bytes msg = ToBytes("msg");
  EXPECT_FALSE(VerifySignature(bob.PublicKey(), msg, alice.Sign(msg)).ok());
}

TEST(SchnorrTest, MalformedInputsRejectedNotCrashed) {
  Rng rng(11);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("m");
  Bytes sig = key.Sign(msg);
  EXPECT_FALSE(VerifySignature(Bytes(3, 1), msg, sig).ok());
  EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, Bytes(5, 1)).ok());
  EXPECT_FALSE(VerifySignature(Bytes(64, 0xee), msg, sig).ok());
}

TEST(SchnorrTest, DomainSeparationPreventsCrossContextReplay) {
  Rng rng(12);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("payload");
  Bytes tx_sig = key.SignWithDomain("pds2.tx", msg);
  EXPECT_TRUE(
      VerifySignatureWithDomain(key.PublicKey(), "pds2.tx", msg, tx_sig).ok());
  EXPECT_FALSE(
      VerifySignatureWithDomain(key.PublicKey(), "pds2.block", msg, tx_sig)
          .ok());
}

TEST(SchnorrTest, SRangeChecked) {
  Rng rng(13);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("m");
  Bytes sig = key.Sign(msg);
  // Force s out of range (>= group order): set all s bytes to 0xff.
  for (size_t i = 64; i < sig.size(); ++i) sig[i] = 0xff;
  EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, sig).ok());
}

// Known-answer vectors. Addresses, tx ids and state roots all derive from
// these bytes, so any drift in how keys, signatures or ECDH secrets encode
// must fail here, whatever algorithm computes the point multiples.
struct GoldenKey {
  const char* seed;
  const char* public_key;
  const char* signature;         // Sign("golden message " + seed)
  const char* domain_signature;  // SignWithDomain("pds2.tx", "golden payload")
};

constexpr GoldenKey kGoldenKeys[] = {
    {"golden-0",
     "df246aa87568fe1f0286cd502aca45e91b8f120b9379ae3eda51f7259fc81633"
     "87b2f5aa5135be305db88b8ca1a8b2b54a70850e316da7617b3a83f1b6b4c81b",
     "f949ec2c134c043149f905c08d4a3616729b0b4d2adf63f5323fb65bd452356f"
     "43d885495a7aa1507d13a23a976fe03faa5b1fa4c187d902216d9541ddc2ea1b"
     "0b726793aeb31b0eadaa731d6159e32d9040dd6015c0fddd8bdefc0a00016174",
     "b736c50a4bfa876237f748be756ae90f1c79da95a494c757743422d7e8b6516c"
     "bbac83f6f8e74aa6d96df8a19b12affb2d31f06acee89b676d8ddcbef1596534"
     "09b5a3be7c1023bdabeb5102f474c70732a5b702e1d621e7ae215915ccef07aa"},
    {"golden-1",
     "be1553073048a5094de70c1c4b1b06623be6b9a1c1b1ddddb2a52001eac98d1f"
     "7da1fb32cdf4e778a2c8c1cc8b67e03974a15bd1e9ef5ea25f1816bf965b7d53",
     "00b8855503e68a60c48db36f9406152b05af78b2c02981af0eb55527e67ccd40"
     "15c0e719791fa57f5c7eadfa032f84ce29e18dcf618bdcb5716f287ad7e1ae60"
     "029d24c2b76dfd81fe956a0ee1e1580cb464e534e013044044f180fdcffd1409",
     "4ebb9c9eb5c19b01ccdb761555b133d9c9a06cab16b11ec79656689de68ef45c"
     "20caec490575c66f4338904251efce1ca8e53916dd666acffa411234b5003228"
     "0110b83418ae7e59a3b49d5a6e05b923bf57a1632d5f1922fee4862fc8de32dc"},
    {"golden-2",
     "4a28a666e2646ae545d1e5b78c0421ffc60b8a609884d13f90acd9cbff30cb7a"
     "3ecdec47be71a01f16493cca79c1a0601690e575c0b956599a07a44ae9ff0f47",
     "da6e58e8036b70bc531c5d7c13f75cb41a8f925ded8052994a6214537da4fe44"
     "e983abfbbe7b10702a58693d3e7f492fad43293c52a51de35107559317303e27"
     "0d0d15e70d612ee109172a6722039fe8fffaf64082975eb8dd31a93a946f9dfe",
     "e4f792ddc51cc55790283461f9e54a01e335a9fdee13cddd8e97589b023c6476"
     "9d08664ae197238613997099804343bfba43de477cf0075bdb226eca114fdb1c"
     "0c30c8ca2ac14291ecdced7b3f416f905a0589cd7e28beae40dfb7ea89458eb8"},
    {"golden-3",
     "a21b9398b785ba57be71b6136c5b74e9384e016b4ba4a8e5495a03fa81e1372a"
     "ea2bf4c3d577e9e53399d99514c48332021d4535e18f3239254155346c15b261",
     "d831e55ac658f129f9df2a72b54407a8a4fb380f07820bbbba0a5c80b4b3d305"
     "68fead3d701d8fb48dff05c8985b4e46254304ddd334eb077119a31c86aa7a2d"
     "04603344e8578405d7b9745167131a6a622e6a3b07fe86c1b9a0c496e56e6d18",
     "d78c19d37300dda958806ea6c556417c2496674cf8032414859ba3884375c22d"
     "31fe13b967329b73f45d02714a21554ded67a190ff9e25a781c36babd9887c1d"
     "0afb857c6b5afecfd065ce84ef33e7032ce39f8b6715d1a1eb353245cc2a6467"},
};

TEST(SchnorrGoldenTest, KeysAndSignaturesAreByteStable) {
  for (const GoldenKey& g : kGoldenKeys) {
    const SigningKey key = SigningKey::FromSeed(ToBytes(g.seed));
    EXPECT_EQ(common::HexEncode(key.PublicKey()), g.public_key) << g.seed;
    EXPECT_EQ(common::HexEncode(
                  key.Sign(ToBytes(std::string("golden message ") + g.seed))),
              g.signature)
        << g.seed;
    EXPECT_EQ(common::HexEncode(
                  key.SignWithDomain("pds2.tx", ToBytes("golden payload"))),
              g.domain_signature)
        << g.seed;
  }
}

TEST(SchnorrGoldenTest, SharedSecretIsByteStable) {
  const SigningKey alice = SigningKey::FromSeed(ToBytes("golden-alice"));
  const SigningKey bob = SigningKey::FromSeed(ToBytes("golden-bob"));
  const char* kSecret =
      "dfd799b40b7264e6e0731dd2974657d03787d095dd63bcc93c1a1e1195035454";
  auto ab = alice.SharedSecret(bob.PublicKey());
  auto ba = bob.SharedSecret(alice.PublicKey());
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(common::HexEncode(*ab), kSecret);
  EXPECT_EQ(common::HexEncode(*ba), kSecret);
}

TEST(EdPointGoldenTest, EdgeScalarMultiplesAreByteStable) {
  const BigUint all_ones = BigUint(1).ShiftLeft(256).Sub(BigUint(1));
  EXPECT_EQ(common::HexEncode(EdPoint::ScalarBaseMul(all_ones).Encode()),
            "8d24f76a6efbbc945082b1ccdbc74755445c03a14855be1837307110474d7f1d"
            "db27fe4b7a4beb8c1b8c38a21e943a852304c9bb3035a5f36626b51162a68f1c");
  EXPECT_TRUE(
      EdPoint::ScalarMul(EdPoint::GroupOrder(), EdPoint::Base()).IsIdentity());
}

// --- VerifySignatureBatch ---------------------------------------------------

std::vector<BatchVerifyEntry> SignedBatch(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchVerifyEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    const SigningKey key = SigningKey::Generate(rng);
    Bytes msg = DomainSeparatedMessage("pds2.tx", rng.NextBytes(40));
    Bytes sig = key.Sign(msg);
    entries.push_back({key.PublicKey(), std::move(msg), std::move(sig)});
  }
  return entries;
}

TEST(SchnorrBatchTest, AllValidBatchAccepts) {
  // Spans the single-entry path, the n < 4 MultiScalarMul path and the
  // window-width changes of the Pippenger path.
  for (size_t n : {1, 2, 3, 4, 5, 16, 17, 50, 200}) {
    EXPECT_TRUE(VerifySignatureBatch(SignedBatch(n, 500 + n))) << n;
  }
  EXPECT_TRUE(VerifySignatureBatch({}));
}

TEST(SchnorrBatchTest, AnySingleBitFlipRejectsTheBatch) {
  for (size_t n : {1, 3, 17}) {
    const std::vector<BatchVerifyEntry> good = SignedBatch(n, 600 + n);
    for (size_t at : {size_t{0}, n / 2, n - 1}) {
      // R (first byte), s (lowest bit, so s stays below l), message, key.
      std::vector<BatchVerifyEntry> bad = good;
      bad[at].signature[0] ^= 0x01;
      EXPECT_FALSE(VerifySignatureBatch(bad)) << "R " << n << " " << at;
      bad = good;
      bad[at].signature[kSignatureSize - 1] ^= 0x01;
      EXPECT_FALSE(VerifySignatureBatch(bad)) << "s " << n << " " << at;
      bad = good;
      bad[at].message.back() ^= 0x80;
      EXPECT_FALSE(VerifySignatureBatch(bad)) << "msg " << n << " " << at;
      bad = good;
      bad[at].public_key[kPublicKeySize - 1] ^= 0x01;
      EXPECT_FALSE(VerifySignatureBatch(bad)) << "key " << n << " " << at;
    }
  }
}

TEST(SchnorrBatchTest, OnCurveSubstitutionsRejectTheBatch) {
  // Tampering that survives decoding reaches the multi-scalar check.
  const std::vector<BatchVerifyEntry> good = SignedBatch(17, 700);
  for (size_t at : {size_t{0}, size_t{8}, size_t{16}}) {
    const size_t other = (at + 1) % good.size();
    std::vector<BatchVerifyEntry> bad = good;
    std::copy(good[other].signature.begin(),
              good[other].signature.begin() + kPublicKeySize,
              bad[at].signature.begin());
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "foreign R " << at;
    bad = good;
    bad[at].public_key = good[other].public_key;
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "foreign key " << at;
    bad = good;
    std::swap(bad[at].message, bad[other].message);
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "swapped messages " << at;
  }
}

TEST(SchnorrBatchTest, OutOfRangeSAndOffCurveRReject) {
  for (size_t n : {1, 5, 17}) {
    const std::vector<BatchVerifyEntry> good = SignedBatch(n, 800 + n);
    std::vector<BatchVerifyEntry> bad = good;
    // s = l exactly: the smallest out-of-range value.
    const Bytes l_bytes = EdPoint::GroupOrder().ToBytesBEPadded(32).value();
    std::copy(l_bytes.begin(), l_bytes.end(),
              bad[n - 1].signature.begin() + kPublicKeySize);
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "s = l, n = " << n;
    bad = good;
    std::fill(bad[n / 2].signature.begin(),
              bad[n / 2].signature.begin() + kPublicKeySize, 0x07);
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "off-curve R, n = " << n;
    bad = good;
    bad[0].signature.pop_back();
    EXPECT_FALSE(VerifySignatureBatch(bad)) << "short signature, n = " << n;
  }
}

TEST(SchnorrBatchTest, BatchAgreesWithPerEntryVerification) {
  const std::vector<BatchVerifyEntry> entries = SignedBatch(50, 900);
  for (const BatchVerifyEntry& e : entries) {
    EXPECT_TRUE(VerifySignature(e.public_key, e.message, e.signature).ok());
  }
  std::vector<BatchVerifyEntry> bad = entries;
  bad[25].signature[kSignatureSize - 1] ^= 0x02;
  EXPECT_FALSE(VerifySignatureBatch(bad));
  EXPECT_FALSE(VerifySignature(bad[25].public_key, bad[25].message,
                               bad[25].signature)
                   .ok());
}

}  // namespace
}  // namespace pds2::crypto
