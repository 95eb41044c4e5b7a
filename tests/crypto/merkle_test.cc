#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;

std::vector<Bytes> MakeLeaves(size_t n) {
  std::vector<Bytes> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(ToBytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasSentinelRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.Root(), Sha256::Hash(Bytes{}));
  EXPECT_EQ(tree.LeafCount(), 0u);
  EXPECT_FALSE(tree.Prove(0).ok());
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf(leaves[0]));
  auto proof = tree.Prove(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(proof->empty());
  EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[0], *proof));
}

class MerkleSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleSizeSweep, AllLeavesProveAndVerify) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  for (size_t i = 0; i < n; ++i) {
    auto proof = tree.Prove(i);
    ASSERT_TRUE(proof.ok()) << i;
    EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[i], *proof)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100));

TEST(MerkleTest, WrongLeafFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(3);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::Verify(tree.Root(), ToBytes("forged"), *proof));
}

TEST(MerkleTest, WrongRootFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(3);
  ASSERT_TRUE(proof.ok());
  Bytes bad_root = tree.Root();
  bad_root[0] ^= 1;
  EXPECT_FALSE(MerkleTree::Verify(bad_root, leaves[3], *proof));
}

TEST(MerkleTest, ProofForOneLeafDoesNotVerifyAnother) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(2);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::Verify(tree.Root(), leaves[5], *proof));
}

TEST(MerkleTest, RootDependsOnLeafOrder) {
  auto leaves = MakeLeaves(4);
  MerkleTree t1(leaves);
  std::swap(leaves[0], leaves[1]);
  MerkleTree t2(leaves);
  EXPECT_NE(t1.Root(), t2.Root());
}

TEST(MerkleTest, RootDependsOnEveryLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree original(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = ToBytes("tampered");
    EXPECT_NE(MerkleTree(mutated).Root(), original.Root()) << i;
  }
}

TEST(MerkleTest, LeafNodeDomainSeparation) {
  // A leaf whose content equals an interior node encoding must not produce
  // the same hash (0x00/0x01 prefixes prevent second-preimage confusion).
  Bytes data = ToBytes("x");
  EXPECT_NE(MerkleTree::HashLeaf(data), Sha256::Hash(data));
}

TEST(MerkleTest, LargeRandomTree) {
  Rng rng(1);
  std::vector<Bytes> leaves;
  for (int i = 0; i < 500; ++i) leaves.push_back(rng.NextBytes(40));
  MerkleTree tree(leaves);
  for (size_t i : {0u, 1u, 250u, 498u, 499u}) {
    auto proof = tree.Prove(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[i], *proof));
  }
  EXPECT_FALSE(tree.Prove(500).ok());
}

TEST(MerkleTest, SevenLeafGoldenRoot) {
  // Recorded with the portable SHA-256 compression and reproduced with
  // Python's hashlib; pins leaf/node domain separation and odd-level
  // promotion together with the hash itself.
  MerkleTree tree(MakeLeaves(7));
  EXPECT_EQ(common::HexEncode(tree.Root()), "0b007fb915eb9b2a146f54b1c86ec53b664f8e455b7660b0b6ee13edc0d921c0");
}

}  // namespace
}  // namespace pds2::crypto
