// Regression suite for the overflow-safe ledger arithmetic: adversarial
// transactions built to wrap uint64 fee/value settlement, the guarded
// WorldState::Credit path, mempool/receipt deduplication, and — in every
// test — conservation of the total native supply.
//
// The overflow cases are true regressions: against the unchecked arithmetic
// (`gas_limit * gas_price` / `value + max_fee`) they wrapped silently and
// minted or destroyed tokens; now they are rejected with InvalidArgument at
// submission, and the execution path double-checks as defense in depth.
#include <gtest/gtest.h>

#include <cstdint>

#include "chain/chain.h"
#include "chain/state.h"
#include "common/checked_math.h"
#include "common/serial.h"
#include "obs/metrics.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::StatusCode;
using common::ToBytes;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr uint64_t kGenesisEach = 10'000'000'000;

class LedgerSafetyTest : public ::testing::Test {
 protected:
  LedgerSafetyTest() { Rebuild(ChainConfig{}); }

  void Rebuild(ChainConfig config) {
    validator_ = std::make_unique<SigningKey>(
        SigningKey::FromSeed(ToBytes("validator-0")));
    alice_ = std::make_unique<SigningKey>(SigningKey::FromSeed(ToBytes("a")));
    bob_ = std::make_unique<SigningKey>(SigningKey::FromSeed(ToBytes("b")));
    chain_ = std::make_unique<Blockchain>(
        std::vector<Bytes>{validator_->PublicKey()},
        ContractRegistry::CreateDefault(), config);
    ASSERT_TRUE(chain_->CreditGenesis(AddressOf(*alice_), kGenesisEach).ok());
    ASSERT_TRUE(chain_->CreditGenesis(AddressOf(*bob_), kGenesisEach).ok());
    supply_at_genesis_ = chain_->TotalSupply();
  }

  static Address AddressOf(const SigningKey& key) {
    return AddressFromPublicKey(key.PublicKey());
  }

  Transaction Transfer(const SigningKey& from, uint64_t value,
                       uint64_t gas_limit, uint64_t gas_price = 1) {
    return Transaction::Make(from, chain_->GetNonce(AddressOf(from)),
                             AddressOf(*bob_), value, gas_limit, CallPayload{},
                             gas_price);
  }

  // Mines a block; returns the receipt if the tx executed.
  common::Result<Receipt> Mine(const Hash& tx_id) {
    auto block = chain_->ProduceBlock(*validator_, ++now_);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    return chain_->GetReceipt(tx_id);
  }

  // Every test ends by asserting that no tokens were minted or destroyed.
  void TearDown() override {
    EXPECT_EQ(chain_->TotalSupply(), supply_at_genesis_)
        << "total supply changed: ledger arithmetic minted/destroyed tokens";
  }

  std::unique_ptr<SigningKey> validator_;
  std::unique_ptr<SigningKey> alice_;
  std::unique_ptr<SigningKey> bob_;
  std::unique_ptr<Blockchain> chain_;
  uint64_t supply_at_genesis_ = 0;
  common::SimTime now_ = 0;
};

// gas_limit * gas_price wraps uint64. Under the unchecked code the wrapped
// "max fee" was tiny, so a pauper's balance covered it and the settlement
// went through with a nonsense fee. Now rejected at submission.
TEST_F(LedgerSafetyTest, GasLimitTimesPriceOverflowRejected) {
  Rebuild(ChainConfig{.gas_price = 3});
  Transaction tx = Transfer(*alice_, 1, UINT64_MAX / 2, /*gas_price=*/3);
  common::Status status = chain_->SubmitTransaction(tx);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(chain_->MempoolSize(), 0u);
}

// value + max_fee wraps uint64: max value with any nonzero fee. Unchecked,
// the wrapped sum passed the balance check and Debit later wrapped the
// sender's balance into trillions. Now rejected at submission.
TEST_F(LedgerSafetyTest, ValuePlusFeeOverflowRejected) {
  Transaction tx = Transfer(*alice_, UINT64_MAX, kGas);
  common::Status status = chain_->SubmitTransaction(tx);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(chain_->MempoolSize(), 0u);
}

// Both terms at their maximum at once.
TEST_F(LedgerSafetyTest, MaxValueAndMaxGasRejected) {
  Transaction tx = Transfer(*alice_, UINT64_MAX, UINT64_MAX);
  EXPECT_EQ(chain_->SubmitTransaction(tx).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(chain_->MempoolSize(), 0u);
}

// With gas_price = 0 a max-value transfer does NOT overflow (fee term is
// zero), so it is accepted into the mempool — but no balance can cover
// value = 2^64-1, so block selection evicts it as pre-doomed instead of
// carrying a transaction guaranteed to fail: no crash, no wrap, no side
// effects, no mempool residue.
TEST_F(LedgerSafetyTest, ZeroGasPriceMaxValueFailsCleanly) {
  Rebuild(ChainConfig{.gas_price = 0});
  const uint64_t alice_before = chain_->GetBalance(AddressOf(*alice_));
  Transaction tx = Transfer(*alice_, UINT64_MAX, kGas, /*gas_price=*/0);
  ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
  EXPECT_EQ(chain_->MempoolSize(), 1u);
  auto block = chain_->ProduceBlock(*validator_, ++now_);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_TRUE(block->transactions.empty());
  EXPECT_EQ(chain_->MempoolSize(), 0u);  // evicted for good, not re-queued
  EXPECT_FALSE(chain_->GetReceipt(tx.Id()).ok());
  EXPECT_EQ(chain_->GetBalance(AddressOf(*alice_)), alice_before);
}

// Selection-time eviction is an optimization, not the safety boundary: a
// block arriving from another node can still carry an unaffordable
// transaction straight into execution, where the upfront balance check
// fails it cleanly (failed receipt, zero gas, no state mutation).
TEST_F(LedgerSafetyTest, UnaffordableTxInExternalBlockFailsCleanly) {
  SigningKey pauper = SigningKey::FromSeed(ToBytes("pauper"));
  Transaction tx = Transaction::Make(pauper, 0, AddressOf(*bob_), 1, kGas,
                                     CallPayload{});
  Block block;
  block.transactions.push_back(tx);
  block.header.parent_hash = chain_->LastBlockHash();
  block.header.number = chain_->Height();
  block.header.timestamp = ++now_;
  block.header.tx_root = Block::ComputeTxRoot(block.transactions, nullptr);
  // The failed execution leaves state untouched, so the pre-block digest
  // is the block's state root.
  block.header.state_root = chain_->StateDigest();
  block.header.proposer_public_key = validator_->PublicKey();
  block.header.signature = validator_->SignWithDomain(
      BlockHeader::Domain(), block.header.SigningBytes());

  ASSERT_TRUE(chain_->ApplyExternalBlock(block).ok());
  auto receipt = chain_->GetReceipt(tx.Id());
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_EQ(receipt->gas_used, 0u);
  EXPECT_NE(receipt->error.find("InsufficientFunds"), std::string::npos)
      << receipt->error;
  EXPECT_EQ(chain_->GetBalance(AddressOf(pauper)), 0u);
  EXPECT_EQ(chain_->GetNonce(AddressOf(pauper)), 0u);
}

// A transfer that exactly drains the sender (value + fee == balance) is the
// boundary the checked comparison must still allow.
TEST_F(LedgerSafetyTest, ExactBalanceSpendStillAllowed) {
  Transaction tx = Transfer(*alice_, kGenesisEach - kGas, kGas);
  ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
  auto receipt = Mine(tx.Id());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success) << receipt->error;
}

// WorldState::Credit refuses to wrap an account balance.
TEST_F(LedgerSafetyTest, CreditOverflowGuarded) {
  WorldState state;
  Address addr(20, 0x11);
  ASSERT_TRUE(state.Credit(addr, UINT64_MAX).ok());
  common::Status status = state.Credit(addr, 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.GetBalance(addr), UINT64_MAX);  // unchanged on failure
}

// Transfer's recipient-side overflow check fires before any debit, so a
// failed transfer leaves both accounts untouched.
TEST_F(LedgerSafetyTest, TransferRecipientOverflowHasNoSideEffects) {
  WorldState state;
  Address rich(20, 0x22), whale(20, 0x33);
  ASSERT_TRUE(state.Credit(rich, 1000).ok());
  ASSERT_TRUE(state.Credit(whale, UINT64_MAX - 10).ok());
  EXPECT_FALSE(state.Transfer(rich, whale, 100).ok());
  EXPECT_EQ(state.GetBalance(rich), 1000u);
  EXPECT_EQ(state.GetBalance(whale), UINT64_MAX - 10);
}

// CreditGenesis caps the total minted supply below 2^64; this is what makes
// all later fee/transfer arithmetic exactly conservative.
TEST_F(LedgerSafetyTest, GenesisSupplyCapEnforced) {
  Blockchain fresh({validator_->PublicKey()},
                   ContractRegistry::CreateDefault());
  Address a(20, 0x01), b(20, 0x02);
  ASSERT_TRUE(fresh.CreditGenesis(a, UINT64_MAX).ok());
  EXPECT_EQ(fresh.CreditGenesis(b, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.TotalSupply(), UINT64_MAX);
}

// The same transaction id cannot be queued twice.
TEST_F(LedgerSafetyTest, DuplicateSubmissionToMempoolRejected) {
  Transaction tx = Transfer(*alice_, 5, kGas);
  ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
  common::Status dup = chain_->SubmitTransaction(tx);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(chain_->MempoolSize(), 1u);
  auto receipt = Mine(tx.Id());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
}

// An already-executed transaction cannot be replayed through the mempool.
TEST_F(LedgerSafetyTest, ExecutedTransactionCannotBeResubmitted) {
  const uint64_t bob_before = chain_->GetBalance(AddressOf(*bob_));
  Transaction tx = Transfer(*alice_, 7, kGas);
  ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
  ASSERT_TRUE(Mine(tx.Id()).ok());
  common::Status replay = chain_->SubmitTransaction(tx);
  EXPECT_EQ(replay.code(), StatusCode::kAlreadyExists);
  (void)chain_->ProduceBlock(*validator_, ++now_);
  EXPECT_EQ(chain_->GetBalance(AddressOf(*bob_)), bob_before + 7);  // once
}

// Bonding moves tokens balance -> stake and release moves them back; the
// conserved quantity balance + staked + burned never changes, and neither
// side can be overdrawn.
TEST_F(LedgerSafetyTest, StakeBondReleaseConservesSupply) {
  WorldState state;
  Address v(20, 0x44);
  ASSERT_TRUE(state.Credit(v, 1'000).ok());
  const uint64_t total =
      state.TotalBalance() + state.TotalStaked() + state.BurnedTotal();
  ASSERT_TRUE(state.StakeBond(v, 600).ok());
  EXPECT_EQ(state.GetBalance(v), 400u);
  EXPECT_EQ(state.StakeOf(v), 600u);
  EXPECT_EQ(state.TotalBalance() + state.TotalStaked() + state.BurnedTotal(),
            total);
  EXPECT_FALSE(state.StakeBond(v, 500).ok());     // balance is only 400
  EXPECT_FALSE(state.StakeRelease(v, 601).ok());  // stake is only 600
  ASSERT_TRUE(state.StakeRelease(v, 600).ok());
  EXPECT_EQ(state.GetBalance(v), 1'000u);
  EXPECT_EQ(state.StakeOf(v), 0u);
  EXPECT_EQ(state.TotalBalance() + state.TotalStaked() + state.BurnedTotal(),
            total);
}

// Slashing splits the forfeited stake exactly: the reporter bounty rounds
// down (floor(amount * bps / 10^4)) and the burn picks up the remainder, so
// bounty + burn == amount and the conserved total is unchanged.
TEST_F(LedgerSafetyTest, SlashSplitsBountyAndBurnExactly) {
  WorldState state;
  Address offender(20, 0x55), reporter(20, 0x66);
  ASSERT_TRUE(state.Credit(offender, 1'001).ok());
  ASSERT_TRUE(state.StakeBond(offender, 1'001).ok());
  const uint64_t total =
      state.TotalBalance() + state.TotalStaked() + state.BurnedTotal();
  ASSERT_TRUE(state.StakeSlash(offender, 1'001, reporter, 3'333).ok());
  EXPECT_EQ(state.GetBalance(reporter), 333u);  // floor(1001 * 0.3333)
  EXPECT_EQ(state.BurnedTotal(), 668u);         // the remainder, exactly
  EXPECT_EQ(state.StakeOf(offender), 0u);
  EXPECT_EQ(state.TotalBalance() + state.TotalStaked() + state.BurnedTotal(),
            total);
  // Nothing left to slash, and a >100% reporter share is malformed.
  EXPECT_FALSE(state.StakeSlash(offender, 1, reporter, 0).ok());
  EXPECT_EQ(state.StakeSlash(offender, 0, reporter, 10'001).code(),
            StatusCode::kInvalidArgument);
}

// A chain constructed with validator_stake mints and bonds the deposit per
// validator; TotalSupply counts it, so the conservation check in TearDown
// holds across the bonded-genesis configuration too.
TEST_F(LedgerSafetyTest, ValidatorStakeBondedAtConstruction) {
  Rebuild(ChainConfig{.validator_stake = 5'000});
  EXPECT_EQ(chain_->StakeOf(AddressOf(*validator_)), 5'000u);
  EXPECT_EQ(chain_->TotalStaked(), 5'000u);
  EXPECT_EQ(chain_->TotalSupply(), 2 * kGenesisEach + 5'000u);
  // The bond is not spendable balance.
  EXPECT_EQ(chain_->GetBalance(AddressOf(*validator_)), 0u);
}

// The checked helpers themselves, at the boundaries.
TEST(CheckedMathTest, Boundaries) {
  uint64_t out = 0;
  EXPECT_TRUE(common::CheckedAdd(UINT64_MAX - 1, 1, &out));
  EXPECT_EQ(out, UINT64_MAX);
  EXPECT_FALSE(common::CheckedAdd(UINT64_MAX, 1, &out));
  EXPECT_TRUE(common::CheckedMul(UINT64_MAX, 1, &out));
  EXPECT_EQ(out, UINT64_MAX);
  EXPECT_FALSE(common::CheckedMul(UINT64_MAX / 2 + 1, 2, &out));
  EXPECT_TRUE(common::CheckedMul(0, UINT64_MAX, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(common::SaturatingAdd(UINT64_MAX, 5), UINT64_MAX);
  EXPECT_EQ(common::SaturatingAdd(2, 3), 5u);
}

// The circulating-supply gauge comes from WorldState's running balance
// total. A block whose state root does not match executes every transfer
// and is then rolled back; the gauge a later good block publishes must
// still equal the full account walk.
TEST_F(LedgerSafetyTest, SupplyGaugeMatchesWalkAfterRejectedBlock) {
  obs::SetMetricsEnabled(true);
  Transaction tx = Transfer(*alice_, 1'000, kGas);
  Block bad;
  bad.transactions.push_back(tx);
  bad.header.parent_hash = chain_->LastBlockHash();
  bad.header.number = chain_->Height();
  bad.header.timestamp = ++now_;
  bad.header.tx_root = Block::ComputeTxRoot(bad.transactions, nullptr);
  bad.header.state_root = Hash(32, 0xee);
  bad.header.proposer_public_key = validator_->PublicKey();
  bad.header.signature = validator_->SignWithDomain(
      BlockHeader::Domain(), bad.header.SigningBytes());
  EXPECT_EQ(chain_->ApplyExternalBlock(bad).code(), StatusCode::kCorruption);

  ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
  ASSERT_TRUE(Mine(tx.Id()).ok());
  const int64_t circulating = obs::Registry::Global()
                                  .GetGauge("chain.supply.circulating")
                                  .Value();
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(static_cast<uint64_t>(circulating), chain_->TotalSupply());
  EXPECT_EQ(chain_->TotalSupply(), supply_at_genesis_);
}

}  // namespace
}  // namespace pds2::chain
