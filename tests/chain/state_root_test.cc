// State root tests: the incremental bucketed Merkle commitment behind
// WorldState::Digest(). Differential (every incremental root must equal the
// root of a freshly restored copy, under nested checkpoints and bucket-count
// changes), known-answer (roots recomputed here from the PROTOCOL.md
// formula with raw SHA-256), and a work bound read from the
// chain.state_root.buckets_rehashed counter. Also the running balance total
// against the full account walk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/state.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::ToBytes;

// Root of a fresh copy restored from a snapshot: no cache carried over, so
// its Digest() builds the whole tree from scratch. Open checkpoints are
// committed on a copy first (SerializeSnapshot requires none).
Hash FreshRoot(const WorldState& state) {
  WorldState copy = state;
  while (copy.CheckpointDepth() > 0) copy.Commit();
  auto fresh = WorldState::DeserializeSnapshot(copy.SerializeSnapshot());
  EXPECT_TRUE(fresh.ok());
  return fresh->Digest();
}

uint64_t BucketsRehashed() {
  return obs::Registry::Global()
      .GetCounter("chain.state_root.buckets_rehashed")
      .Value();
}

// Address pool: mostly 20-byte addresses, plus short and long ones whose
// bucket placement follows the byte-order rule rather than the top bits.
std::vector<Address> MakeAddressPool(common::Rng& rng, size_t n) {
  std::vector<Address> pool;
  pool.push_back({});
  pool.push_back({0x00});
  pool.push_back({0x80});
  pool.push_back({0x80, 0x00, 0x00});
  pool.push_back({0xff, 0xff});
  pool.push_back(Address(32, 0x7f));
  while (pool.size() < n) pool.push_back(rng.NextBytes(kAddressSize));
  return pool;
}

// Applies one random mutation or checkpoint operation to every state in
// `states` (identically), exercising every mutator of WorldState.
void RandomStep(common::Rng& rng, const std::vector<Address>& pool,
                size_t live, std::vector<WorldState*> states) {
  const Address& a = pool[rng.NextU64(live)];
  const Address& b = pool[rng.NextU64(live)];
  const std::string space = "space-" + std::to_string(rng.NextU64(3));
  const Bytes key = rng.NextBytes(1 + rng.NextU64(3));
  const uint64_t amount = rng.NextU64(50);
  const uint64_t op = rng.NextU64(12);
  for (WorldState* s : states) {
    switch (op) {
      case 0:
      case 1:
        (void)s->Credit(a, amount);
        break;
      case 2:
        (void)s->Debit(a, amount);
        break;
      case 3:
        (void)s->Transfer(a, b, amount);
        break;
      case 4:
        s->BumpNonce(a);
        break;
      case 5:
        s->PutAccount(a, Account{amount, amount % 3});
        break;
      case 6:
        s->StoragePut(space, key, Bytes(amount % 4, 0xab));
        break;
      case 7:
        s->StorageDelete(space, key);
        break;
      case 8:
        s->Begin();
        break;
      case 9:
        if (s->CheckpointDepth() > 0) s->Commit();
        break;
      default:
        if (s->CheckpointDepth() > 0) s->Rollback();
        break;
    }
  }
}

TEST(StateRootTest, IncrementalMatchesFreshUnderNestedCheckpoints) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    common::Rng rng(seed);
    const std::vector<Address> pool = MakeAddressPool(rng, 320);
    // `eager` digests after every step; `lazy` accumulates dirty buckets
    // over several steps between digests.
    WorldState eager, lazy;
    size_t live = 8;
    for (int step = 0; step < 2500; ++step) {
      // Widen the address pool slowly, so the account count climbs through
      // the 16/32/64/128/256 bucket-count thresholds.
      if (step % 8 == 0 && live < pool.size()) ++live;
      RandomStep(rng, pool, live, {&eager, &lazy});
      const Hash fresh = FreshRoot(eager);
      ASSERT_EQ(eager.Digest(), fresh) << "seed " << seed << " step " << step;
      if (rng.NextU64(5) == 0) {
        ASSERT_EQ(lazy.Digest(), fresh) << "seed " << seed << " step " << step;
      }
    }
    while (lazy.CheckpointDepth() > 0) lazy.Rollback();
    while (eager.CheckpointDepth() > 0) eager.Rollback();
    EXPECT_EQ(lazy.Digest(), eager.Digest());
    EXPECT_EQ(eager.Digest(), FreshRoot(eager));
  }
}

// The ApplyExternalBlock reject path: a root taken inside an open
// checkpoint, then rolled back, must leave the cache describing the
// pre-checkpoint state.
TEST(StateRootTest, DigestInsideCheckpointThenRollback) {
  common::Rng rng(7);
  WorldState state;
  for (int i = 0; i < 200; ++i) (void)state.Credit(rng.NextBytes(20), 1 + i);
  state.StoragePut("ns", ToBytes("k"), ToBytes("v"));
  const Hash before = state.Digest();

  state.Begin();
  for (int i = 0; i < 40; ++i) (void)state.Credit(rng.NextBytes(20), 5);
  state.BumpNonce(rng.NextBytes(20));
  state.StoragePut("ns", ToBytes("k"), ToBytes("w"));
  state.StoragePut("other", ToBytes("x"), ToBytes("y"));
  const Hash inside = state.Digest();
  EXPECT_NE(inside, before);
  EXPECT_EQ(inside, FreshRoot(state));
  state.Rollback();

  EXPECT_EQ(state.Digest(), before);
  EXPECT_EQ(state.Digest(), FreshRoot(state));
}

TEST(StateRootTest, BucketCountThresholdCrossings) {
  WorldState state;
  auto addr = [](size_t i) {
    return crypto::Sha256::Hash("acct-" + std::to_string(i));
  };
  for (size_t i = 0; i < 16; ++i) (void)state.Credit(addr(i), 1);
  EXPECT_EQ(state.Digest(), FreshRoot(state));  // B = 1
  (void)state.Credit(addr(16), 1);               // 17 accounts: B = 2
  const Hash at17 = state.Digest();
  EXPECT_EQ(at17, FreshRoot(state));

  state.Begin();
  for (size_t i = 17; i < 70; ++i) (void)state.Credit(addr(i), 1);  // B = 8
  EXPECT_EQ(state.Digest(), FreshRoot(state));
  state.Begin();
  (void)state.Credit(addr(70), 1);
  EXPECT_EQ(state.Digest(), FreshRoot(state));
  state.Rollback();
  state.Rollback();  // back to 17 accounts: B = 2 again
  EXPECT_EQ(state.Digest(), at17);
}

// --- Known answers -----------------------------------------------------------

void PutLe32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutLe64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutField(Bytes* out, const Bytes& field) {
  PutLe32(out, static_cast<uint32_t>(field.size()));
  out->insert(out->end(), field.begin(), field.end());
}

Bytes Leaf(const Address& addr, uint64_t balance, uint64_t nonce) {
  Bytes leaf;
  PutField(&leaf, addr);
  PutLe64(&leaf, balance);
  PutLe64(&leaf, nonce);
  return leaf;
}

Bytes Tagged(std::string_view tag, const std::vector<Bytes>& parts) {
  crypto::Sha256 h;
  h.Update(tag);
  for (const Bytes& part : parts) h.Update(part);
  return h.Finish();
}

TEST(StateRootTest, KnownAnswerSingleBucket) {
  const Address a1(kAddressSize, 0x11), a2(kAddressSize, 0x22);
  WorldState state;
  (void)state.Credit(a2, 7);
  (void)state.Credit(a1, 5);
  state.BumpNonce(a1);
  state.StoragePut("ns", ToBytes("k"), ToBytes("v"));
  state.StoragePut("gone", ToBytes("k"), ToBytes("v"));
  state.StorageDelete("gone", ToBytes("k"));  // empty spaces are skipped

  const Bytes bucket =
      Tagged("pds2.state.v2.bucket", {Leaf(a1, 5, 1), Leaf(a2, 7, 0)});
  Bytes slots;
  PutField(&slots, ToBytes("k"));
  PutField(&slots, ToBytes("v"));
  const Bytes space = Tagged("pds2.state.v2.space", {slots});
  Bytes name;
  PutField(&name, ToBytes("ns"));
  const Bytes root =
      Tagged("pds2.state.v2.root", {Bytes{0x00}, bucket, name, space});
  EXPECT_EQ(state.Digest(), root);
}

TEST(StateRootTest, KnownAnswerTwoBuckets) {
  // 17 accounts -> k = 1: first byte < 0x80 in bucket 0, the rest in 1.
  WorldState state;
  std::vector<Bytes> low, high;
  for (uint8_t i = 0; i < 17; ++i) {
    const Address addr(kAddressSize, static_cast<uint8_t>(i * 8));
    (void)state.Credit(addr, 100 + i);
    (addr[0] < 0x80 ? low : high).push_back(Leaf(addr, 100 + i, 0));
  }
  ASSERT_EQ(low.size(), 16u);
  const Bytes node = Tagged("pds2.state.v2.node",
                            {Tagged("pds2.state.v2.bucket", low),
                             Tagged("pds2.state.v2.bucket", high)});
  EXPECT_EQ(state.Digest(), Tagged("pds2.state.v2.root", {Bytes{0x01}, node}));
}

// --- Work bound ----------------------------------------------------------------

TEST(StateRootTest, DigestRehashesOnlyTouchedBuckets) {
  obs::SetMetricsEnabled(true);
  common::Rng rng(11);
  WorldState state;
  std::vector<Address> addrs;
  for (size_t i = 0; i < (size_t{1} << 16); ++i) {
    addrs.push_back(rng.NextBytes(kAddressSize));
    (void)state.Credit(addrs.back(), 1'000);
  }
  uint64_t before = BucketsRehashed();
  const Hash genesis = state.Digest();
  EXPECT_EQ(BucketsRehashed() - before, 4096u);  // 2^16 / 16 buckets, once

  for (size_t k : {1u, 10u, 400u}) {
    for (size_t i = 0; i < k; ++i) {
      (void)state.Credit(addrs[rng.NextU64(addrs.size())], 1);
    }
    before = BucketsRehashed();
    const Hash root = state.Digest();
    const uint64_t rehashed = BucketsRehashed() - before;
    EXPECT_GE(rehashed, 1u);
    EXPECT_LE(rehashed, k) << "touched " << k << " accounts";
    before = BucketsRehashed();
    EXPECT_EQ(state.Digest(), root);
    EXPECT_EQ(BucketsRehashed() - before, 0u) << "no mutation, no re-hash";
  }
  EXPECT_NE(state.Digest(), genesis);
  EXPECT_EQ(state.Digest(), FreshRoot(state));

  before = BucketsRehashed();
  for (size_t i = 0; i < 5; ++i) state.BumpNonce(addrs[i * 1000]);
  (void)state.Digest();
  EXPECT_LE(BucketsRehashed() - before, 5u);
  obs::SetMetricsEnabled(false);
}

// Independent copies digested concurrently share no cache state, and the
// roots do not depend on which thread computed them.
TEST(StateRootTest, CopiesDigestConcurrently) {
  common::Rng rng(5);
  WorldState base;
  for (int i = 0; i < 500; ++i) (void)base.Credit(rng.NextBytes(20), 1 + i);
  (void)base.Digest();
  std::vector<WorldState> copies(8, base);
  for (size_t i = 0; i < copies.size(); ++i) {
    (void)copies[i].Credit(Address(kAddressSize, static_cast<uint8_t>(i)), 1);
  }
  std::vector<Hash> roots(copies.size());
  common::ThreadPool pool(4);
  pool.ParallelFor(0, copies.size(),
                   [&](size_t i) { roots[i] = copies[i].Digest(); });
  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(roots[i], FreshRoot(copies[i])) << i;
  }
}

// The running balance total behind RunningTotalBalance() against the
// TotalBalance() walk: after every random credit/debit/transfer/put/
// checkpoint/rollback step, after stake bonds, releases and slashes, and
// across a snapshot round trip.
TEST(RunningTotalBalanceTest, MatchesWalkUnderRandomMutations) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    common::Rng rng(seed);
    const std::vector<Address> pool = MakeAddressPool(rng, 64);
    WorldState state;
    for (int step = 0; step < 3000; ++step) {
      RandomStep(rng, pool, pool.size(), {&state});
      const Address& a = pool[rng.NextU64(pool.size())];
      const Address& b = pool[rng.NextU64(pool.size())];
      switch (rng.NextU64(8)) {
        case 0:
          (void)state.StakeBond(a, rng.NextU64(30));
          break;
        case 1:
          (void)state.StakeRelease(a, rng.NextU64(30));
          break;
        case 2:
          (void)state.StakeSlash(a, state.StakeOf(a) / 2, b, 2'500);
          break;
        default:
          break;
      }
      ASSERT_EQ(state.RunningTotalBalance(), state.TotalBalance())
          << "seed " << seed << " step " << step;
    }
    while (state.CheckpointDepth() > 0) state.Rollback();
    ASSERT_EQ(state.RunningTotalBalance(), state.TotalBalance());
    auto restored = WorldState::DeserializeSnapshot(state.SerializeSnapshot());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->RunningTotalBalance(), state.TotalBalance());
  }
}

// A hand-built state past uint64: both totals saturate, and both come back
// to the exact sum once it fits again.
TEST(RunningTotalBalanceTest, SaturatesLikeTheWalk) {
  const Address whale(kAddressSize, 1);
  WorldState state;
  state.PutAccount(whale, Account{UINT64_MAX, 0});
  state.Begin();
  ASSERT_TRUE(state.Credit(Address(kAddressSize, 2), 10).ok());
  EXPECT_EQ(state.RunningTotalBalance(), UINT64_MAX);
  EXPECT_EQ(state.TotalBalance(), UINT64_MAX);
  state.Rollback();
  ASSERT_TRUE(state.Debit(whale, 5).ok());
  EXPECT_EQ(state.RunningTotalBalance(), UINT64_MAX - 5);
  EXPECT_EQ(state.TotalBalance(), UINT64_MAX - 5);
}

}  // namespace
}  // namespace pds2::chain
