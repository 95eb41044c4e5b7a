// Block execution suite: the sharded mempool and — the contract that
// matters — bit-identical receipts, state digests and block hashes for
// every (conflict rate, thread count) combination, pinned to golden values
// recorded when blocks still ran in optimistic conflict lanes. Transactions
// execute sequentially; the thread pool only fans out signature batches
// and the tx root.
//
// Carries the `parallel` and `sanitize` labels: rerun under
// -DPDS2_SANITIZE=thread to check the pool-driven validation for races.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/chain.h"
#include "chain/mempool.h"
#include "common/hex.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Reader;
using common::StatusCode;
using common::ToBytes;
using common::Writer;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr uint64_t kGenesisEach = 10'000'000'000;

Address TestAddress(uint8_t tag) { return Address(kAddressSize, tag); }

// --- Sharded mempool --------------------------------------------------------

class MempoolTest : public ::testing::Test {
 protected:
  static Transaction Tx(const SigningKey& from, uint64_t nonce,
                        uint64_t value = 1, uint64_t gas_limit = kGas) {
    return Transaction::Make(from, nonce, TestAddress(0xbb), value, gas_limit,
                             CallPayload{});
  }

  static SigningKey Key(const std::string& seed) {
    return SigningKey::FromSeed(ToBytes(seed));
  }
};

TEST_F(MempoolTest, DuplicateIdAndNonceSlotRejected) {
  Mempool pool;
  SigningKey alice = Key("alice");
  Transaction tx = Tx(alice, 0);
  ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_EQ(pool.Add(tx).code(), StatusCode::kAlreadyExists);
  // Different tx, same (sender, nonce): first submission wins.
  EXPECT_EQ(pool.Add(Tx(alice, 0, 2)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.Size(), 1u);
  EXPECT_TRUE(pool.Contains(tx.Id()));
}

TEST_F(MempoolTest, AdmissionIsBounded) {
  Mempool::Config config;
  config.max_transactions = 2;
  Mempool pool(config);
  SigningKey alice = Key("alice");
  ASSERT_TRUE(pool.Add(Tx(alice, 0)).ok());
  ASSERT_TRUE(pool.Add(Tx(alice, 1)).ok());
  EXPECT_EQ(pool.Add(Tx(alice, 2)).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.Size(), 2u);
}

TEST_F(MempoolTest, SelectionFollowsNonceRunsAndEvictsStale) {
  Mempool pool;
  SigningKey alice = Key("alice");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressFromPublicKey(alice.PublicKey()),
                           kGenesisEach)
                  .ok());
  state.BumpNonce(AddressFromPublicKey(alice.PublicKey()));  // nonce = 1

  Transaction stale = Tx(alice, 0);
  Transaction current = Tx(alice, 1);
  Transaction next = Tx(alice, 2);
  Transaction future = Tx(alice, 4);  // gap at 3: stays queued
  ASSERT_TRUE(pool.Add(stale).ok());
  ASSERT_TRUE(pool.Add(next).ok());
  ASSERT_TRUE(pool.Add(current).ok());
  ASSERT_TRUE(pool.Add(future).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas, 1);
  ASSERT_EQ(selection.selected.size(), 2u);
  EXPECT_EQ(selection.selected[0].Id(), current.Id());
  EXPECT_EQ(selection.selected[1].Id(), next.Id());
  ASSERT_EQ(selection.dropped.size(), 1u);
  EXPECT_EQ(selection.dropped[0], stale.Id());
  EXPECT_EQ(pool.Size(), 1u);  // the future-nonce tx waits
  EXPECT_TRUE(pool.Contains(future.Id()));
}

TEST_F(MempoolTest, PreDoomedHeadEvictedAffordableHeadKept) {
  Mempool pool;
  SigningKey pauper = Key("pauper");
  SigningKey alice = Key("alice");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressFromPublicKey(alice.PublicKey()),
                           kGenesisEach)
                  .ok());

  Transaction doomed = Tx(pauper, 0);  // no balance at all
  Transaction fine = Tx(alice, 0);
  ASSERT_TRUE(pool.Add(doomed).ok());
  ASSERT_TRUE(pool.Add(fine).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas, 1);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_EQ(selection.selected[0].Id(), fine.Id());
  ASSERT_EQ(selection.dropped.size(), 1u);
  EXPECT_EQ(selection.dropped[0], doomed.Id());
  EXPECT_EQ(pool.Size(), 0u);
}

TEST_F(MempoolTest, GasLimitBoundsSelectionByWorstCase) {
  Mempool pool;
  SigningKey alice = Key("alice");
  SigningKey bob = Key("bob");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressFromPublicKey(alice.PublicKey()),
                           kGenesisEach)
                  .ok());
  ASSERT_TRUE(state.Credit(AddressFromPublicKey(bob.PublicKey()),
                           kGenesisEach)
                  .ok());
  ASSERT_TRUE(pool.Add(Tx(alice, 0)).ok());
  ASSERT_TRUE(pool.Add(Tx(bob, 0)).ok());

  // Budget fits exactly one gas_limit: first-come-first-served picks
  // alice's (submitted first); bob's stays queued for the next block.
  auto selection = pool.SelectForBlock(state, kGas, 1);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_TRUE(selection.dropped.empty());
  EXPECT_EQ(pool.Size(), 1u);
}

// --- End-to-end bit-equality sweep ------------------------------------------

struct RunResult {
  Hash block_hash;
  Hash state_digest;
  std::vector<Receipt> receipts;  // in block order
  size_t tx_count = 0;
};

// A transfer workload over `kSenders` independent senders where
// `conflict_pct` percent of the transactions pay a single hot address and
// the rest pay a per-sender cold address.
RunResult RunTransferWorkload(int conflict_pct, size_t threads) {
  constexpr size_t kSenders = 32;
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  common::ThreadPool pool(threads);
  ChainConfig config;
  config.thread_pool = &pool;
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                   config);

  std::vector<SigningKey> senders;
  for (size_t i = 0; i < kSenders; ++i) {
    senders.push_back(SigningKey::FromSeed(ToBytes("sender-" +
                                                   std::to_string(i))));
    EXPECT_TRUE(chain
                    .CreditGenesis(
                        AddressFromPublicKey(senders.back().PublicKey()),
                        kGenesisEach)
                    .ok());
  }

  const Address hot = TestAddress(0xee);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < kSenders; ++i) {
    // Bresenham spread: exactly conflict_pct% of indices, evenly spaced.
    const bool conflicted =
        ((i + 1) * conflict_pct) / 100 > (i * conflict_pct) / 100;
    const Address to =
        conflicted ? hot : TestAddress(static_cast<uint8_t>(0x40 + i));
    txs.push_back(Transaction::Make(senders[i], 0, to, 100 + i, kGas,
                                    CallPayload{}));
    EXPECT_TRUE(chain.SubmitTransaction(txs.back()).ok());
  }

  auto block = chain.ProduceBlock(validator, 1);
  EXPECT_TRUE(block.ok()) << block.status().ToString();

  RunResult result;
  result.block_hash = block->header.Id();
  result.state_digest = chain.StateDigest();
  result.tx_count = block->transactions.size();
  for (const Transaction& tx : block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok());
    result.receipts.push_back(*receipt);
  }
  return result;
}

void ExpectIdentical(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.block_hash, want.block_hash);
  EXPECT_EQ(got.state_digest, want.state_digest);
  EXPECT_EQ(got.tx_count, want.tx_count);
  ASSERT_EQ(got.receipts.size(), want.receipts.size());
  for (size_t i = 0; i < got.receipts.size(); ++i) {
    EXPECT_EQ(got.receipts[i].tx_id, want.receipts[i].tx_id) << i;
    EXPECT_EQ(got.receipts[i].success, want.receipts[i].success) << i;
    EXPECT_EQ(got.receipts[i].error, want.receipts[i].error) << i;
    EXPECT_EQ(got.receipts[i].gas_used, want.receipts[i].gas_used) << i;
    EXPECT_EQ(got.receipts[i].output, want.receipts[i].output) << i;
    EXPECT_EQ(got.receipts[i].events.size(), want.receipts[i].events.size())
        << i;
  }
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, BitIdenticalAcrossThreadCounts) {
  const int conflict_pct = GetParam();
  const RunResult reference = RunTransferWorkload(conflict_pct, 1);
  EXPECT_EQ(reference.tx_count, 32u);
  for (size_t threads : {2u, 4u, 8u}) {
    RunResult parallel = RunTransferWorkload(conflict_pct, threads);
    ExpectIdentical(parallel, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(ConflictSweep, ParallelEquivalenceTest,
                         ::testing::Values(0, 25, 100));

// Contract transactions: four independent ERC-20 instances, each with its
// own holders; the result must match the single-thread run bit for bit.
RunResult RunErc20Workload(size_t threads) {
  constexpr size_t kInstances = 4;
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  common::ThreadPool pool(threads);
  ChainConfig config;
  config.thread_pool = &pool;
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                   config);

  std::vector<SigningKey> owners;
  std::vector<uint64_t> instances;
  for (size_t i = 0; i < kInstances; ++i) {
    owners.push_back(SigningKey::FromSeed(ToBytes("owner-" +
                                                  std::to_string(i))));
    EXPECT_TRUE(chain
                    .CreditGenesis(
                        AddressFromPublicKey(owners.back().PublicKey()),
                        kGenesisEach)
                    .ok());
  }

  // Block 1: deploys.
  common::SimTime now = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    Writer deploy_args;
    deploy_args.PutString("TOK" + std::to_string(i));
    deploy_args.PutU64(1000);
    Transaction deploy = Transaction::Make(
        owners[i], 0, Address{}, 0, kGas,
        CallPayload{"erc20", 0, "deploy", deploy_args.Take()});
    EXPECT_TRUE(chain.SubmitTransaction(deploy).ok());
  }
  auto deploy_block = chain.ProduceBlock(validator, ++now);
  EXPECT_TRUE(deploy_block.ok()) << deploy_block.status().ToString();
  for (const Transaction& tx : deploy_block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok() && receipt->success);
    instances.push_back(*InstanceIdFromReceipt(*receipt));
  }
  EXPECT_EQ(instances.size(), kInstances);

  // Block 2: three token transfers per instance.
  for (size_t i = 0; i < kInstances; ++i) {
    for (uint64_t n = 0; n < 3; ++n) {
      Writer call_args;
      call_args.PutBytes(TestAddress(static_cast<uint8_t>(0x60 + 4 * i + n)));
      call_args.PutU64(10 + n);
      Transaction transfer = Transaction::Make(
          owners[i], 1 + n, Address{}, 0, kGas,
          CallPayload{"erc20", instances[i], "transfer", call_args.Take()});
      EXPECT_TRUE(chain.SubmitTransaction(transfer).ok());
    }
  }
  auto block = chain.ProduceBlock(validator, ++now);
  EXPECT_TRUE(block.ok()) << block.status().ToString();

  RunResult result;
  result.block_hash = block->header.Id();
  result.state_digest = chain.StateDigest();
  result.tx_count = block->transactions.size();
  for (const Transaction& tx : block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok());
    EXPECT_TRUE(receipt->success) << receipt->error;
    result.receipts.push_back(*receipt);
  }
  return result;
}

TEST(ParallelContractTest, Erc20BitIdenticalAcrossThreads) {
  const RunResult reference = RunErc20Workload(1);
  EXPECT_EQ(reference.tx_count, 12u);
  for (size_t threads : {2u, 4u, 8u}) {
    ExpectIdentical(RunErc20Workload(threads), reference);
  }
}

// --- Golden blocks ----------------------------------------------------------

// SHA-256 over every receipt field, events included, in block order.
std::string ReceiptsDigest(const std::vector<Receipt>& receipts) {
  Writer w;
  for (const Receipt& receipt : receipts) {
    w.PutBytes(receipt.tx_id);
    w.PutU64(receipt.block_number);
    w.PutBool(receipt.success);
    w.PutString(receipt.error);
    w.PutU64(receipt.gas_used);
    w.PutBytes(receipt.output);
    w.PutU64(receipt.events.size());
    for (const Event& event : receipt.events) {
      w.PutString(event.contract);
      w.PutU64(event.instance);
      w.PutString(event.name);
      w.PutBytes(event.data);
    }
  }
  return common::HexEncode(crypto::Sha256::Hash(w.Take()));
}

struct GoldenBlock {
  const char* block_hash;
  const char* state_root;
  const char* receipts;
};

void ExpectGolden(const RunResult& got, const GoldenBlock& want) {
  EXPECT_EQ(common::HexEncode(got.block_hash), want.block_hash);
  EXPECT_EQ(common::HexEncode(got.state_digest), want.state_root);
  EXPECT_EQ(ReceiptsDigest(got.receipts), want.receipts);
}

// Pinned outputs of the sweep blocks on a 4-thread pool, recorded while
// the 0% and 25% transfer blocks and the ERC-20 block still executed in
// optimistic conflict lanes. Every executor must reproduce them bit for
// bit: block hash, state root and all receipts.
TEST(GoldenBlockTest, TransferSweepMatchesRecordedBlocks) {
  const struct {
    int conflict_pct;
    GoldenBlock golden;
  } kCases[] = {
      {0,
       {"448cfc0f2994cd98e4aa193d5412b6b328310d601e8c4441289bb2ce8e43f3fa",
        "200885d75759f8c2bd148143fe6510ba41c9b947513bf7f35f8ed374d897ac3f",
        "92125e6053bb7d4585f63893a1d5a96971de289ab5b204032a447b7f0afd1410"}},
      {25,
       {"fc2dc55f9a3e030df4fc79b5c56a5346917faf377e00829f59f8f5d0d00b5f7f",
        "959b7f767f1175c483369a4466150e527972445d741725b56ef8fb8e5d2b6e30",
        "8f0930543fbc55c68ad5e3b69df88ec6215edd1c9adc5fda35c2b251d3592f4c"}},
      {100,
       {"5aef4cdc66c7f32f6c31c79f67cf684f8344bda66f05ecbee07b274fdd93fa4a",
        "bfa1d903b28ac9c86c3df49649b5f262643d8389ec866ea56bab9c3de4db1c67",
        "48f69211d626fef971001acb05946a1095edc8b6b09017a9ffab448b59a47953"}},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.conflict_pct);
    ExpectGolden(RunTransferWorkload(c.conflict_pct, 4), c.golden);
  }
}

TEST(GoldenBlockTest, Erc20BlockMatchesRecordedBlock) {
  ExpectGolden(
      RunErc20Workload(4),
      {"ae665878664b37ccaf54b019601412cc9c0db87f31e35088a651f42784756ee8",
       "df9f749cb8a7e42634c1b8da0f1df8fdfe10ec770383ac4b1cbf5a32f640ef9a",
       "131b55e50edeaa2f1c40e30b5c9b43132811a64783872c13ac3294599cec5980"});
}

// Cross-replica check: a block produced with an 8-thread pool must be
// accepted by a replica applying it with 1 thread, and vice versa.
TEST(ParallelApplyTest, ProducerAndReplicaDisagreeOnNothing) {
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  for (size_t produce_threads : {8u, 1u}) {
    for (size_t apply_threads : {1u, 8u}) {
      common::ThreadPool produce_pool(produce_threads);
      common::ThreadPool apply_pool(apply_threads);
      ChainConfig produce_config;
      produce_config.thread_pool = &produce_pool;
      ChainConfig apply_config;
      apply_config.thread_pool = &apply_pool;
      Blockchain producer({validator.PublicKey()},
                          ContractRegistry::CreateDefault(), produce_config);
      Blockchain replica({validator.PublicKey()},
                         ContractRegistry::CreateDefault(), apply_config);

      std::vector<SigningKey> senders;
      for (size_t i = 0; i < 16; ++i) {
        senders.push_back(
            SigningKey::FromSeed(ToBytes("s" + std::to_string(i))));
        const Address addr =
            AddressFromPublicKey(senders.back().PublicKey());
        ASSERT_TRUE(producer.CreditGenesis(addr, kGenesisEach).ok());
        ASSERT_TRUE(replica.CreditGenesis(addr, kGenesisEach).ok());
      }
      for (size_t i = 0; i < 16; ++i) {
        Transaction tx = Transaction::Make(
            senders[i], 0, TestAddress(static_cast<uint8_t>(0x80 + i)), 7,
            kGas, CallPayload{});
        ASSERT_TRUE(producer.SubmitTransaction(tx).ok());
      }
      auto block = producer.ProduceBlock(validator, 1);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      EXPECT_EQ(block->transactions.size(), 16u);
      ASSERT_TRUE(replica.ApplyExternalBlock(*block).ok());
      EXPECT_EQ(replica.StateDigest(), producer.StateDigest());
    }
  }
}

}  // namespace
}  // namespace pds2::chain
