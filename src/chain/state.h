#ifndef PDS2_CHAIN_STATE_H_
#define PDS2_CHAIN_STATE_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/types.h"
#include "common/result.h"

namespace pds2::chain {

/// Balance, nonce and existence of one account.
struct Account {
  uint64_t balance = 0;
  uint64_t nonce = 0;
};

/// Reserved storage space holding the stake ledger: 20-byte address keys map
/// to u64 bonded amounts, plus the (non-address-sized) burned-total key. The
/// space lives in ordinary contract storage, so journaling, digests and
/// snapshots all cover it with no special cases.
inline constexpr char kStakeSpace[] = "pds2.stake";
/// Key under kStakeSpace accumulating burned (slashed-and-destroyed) tokens.
/// Deliberately not 20 bytes long, so it can never collide with an address.
inline constexpr char kBurnedKey[] = "burned-total";
/// Denominator of the reporter's share of a slash (basis points).
inline constexpr uint32_t kSlashBpsDenominator = 10'000;

/// The replicated ledger state: native-token accounts plus raw contract
/// storage. Transactions execute directly against it, one after another.
/// Mutations are journaled so a failed transaction can be rolled back
/// precisely (only the keys it touched are restored).
class WorldState {
 public:
  WorldState() = default;

  // --- Accounts -----------------------------------------------------------

  /// Balance of `addr` (0 for unknown accounts).
  uint64_t GetBalance(const Address& addr) const;
  /// Current nonce of `addr` (0 for unknown accounts).
  uint64_t GetNonce(const Address& addr) const;
  /// Credits an account (used for genesis allocations, block rewards and
  /// gas refunds). Guarded: InvalidArgument when the credit would wrap the
  /// balance past uint64, leaving the account untouched. Transfers and fee
  /// credits can never trip the guard (conservation bounds every balance by
  /// the total supply, which CreditGenesis caps below uint64), so callers
  /// on those paths may assert success.
  common::Status Credit(const Address& addr, uint64_t amount);
  /// Debits; InsufficientFunds if the balance is too small.
  common::Status Debit(const Address& addr, uint64_t amount);
  /// Atomic transfer from -> to.
  common::Status Transfer(const Address& from, const Address& to,
                          uint64_t amount);
  /// Increments the account nonce.
  void BumpNonce(const Address& addr);
  /// Installs an account record verbatim (journaled like any mutation).
  void PutAccount(const Address& addr, const Account& account);

  // --- Contract storage ----------------------------------------------------

  /// Reads a storage slot; nullopt when unset.
  std::optional<common::Bytes> StorageGet(
      const std::string& space, const common::Bytes& key) const;
  /// Writes a storage slot. Returns true if the slot already existed
  /// (drives the cheaper "update" gas price).
  bool StoragePut(const std::string& space, const common::Bytes& key,
                  const common::Bytes& value);
  /// Deletes a slot (no-op if absent).
  void StorageDelete(const std::string& space, const common::Bytes& key);
  /// All (key, value) pairs in a namespace whose key starts with `prefix`,
  /// in key order. Used by read-only enumeration queries.
  std::vector<std::pair<common::Bytes, common::Bytes>> StorageScan(
      const std::string& space, const common::Bytes& prefix) const;

  // --- Journaling -----------------------------------------------------------

  /// Opens a nested checkpoint. Every mutation after this point can be
  /// undone with Rollback or kept with Commit.
  void Begin();
  /// Discards the most recent checkpoint, keeping its mutations.
  void Commit();
  /// Undoes all mutations since the most recent checkpoint.
  void Rollback();
  /// Depth of open checkpoints (0 outside any transaction).
  size_t CheckpointDepth() const { return checkpoints_.size(); }

  /// Commitment to the full state, included in block headers as the state
  /// root: a binary Merkle tree over 2^k address-prefix buckets of
  /// accounts, combined with one hash per non-empty storage space (exact
  /// encoding: docs/PROTOCOL.md "State root"). The bucket and space hashes
  /// are cached and every mutation (Rollback included) marks what it
  /// touched, so a call re-hashes only the buckets and spaces changed since
  /// the previous call plus their tree paths. A change of k (it follows the
  /// account count) rebuilds the tree once. Refreshing the cache makes this
  /// a writer: do not call it concurrently with any other WorldState method.
  Hash Digest() const;

  /// Sum of all account balances — the circulating native supply — by a
  /// walk over every account; the reference RunningTotalBalance() is tested
  /// against. Only genesis allocations create tokens, so the total moves
  /// only with stake bonds, releases and slashes (fees merely move value to
  /// the proposer); the audit tests assert it.
  uint64_t TotalBalance() const;
  /// TotalBalance() in O(1): a running sum that every account write keeps
  /// current, Rollback and DeserializeSnapshot included. Both saturate at
  /// uint64 max for a hand-built state past the genesis cap.
  uint64_t RunningTotalBalance() const;

  // --- Stake ledger ---------------------------------------------------------
  // Accountability deposits (paper's D2M-style incentive layer), layered on
  // the account and storage primitives above: stake lives in the
  // kStakeSpace storage namespace, and bonding/releasing moves value between
  // an account's spendable balance and its stake record. The conserved
  // quantity is TotalBalance() + TotalStaked() + BurnedTotal().

  /// Bonded stake of `addr` (0 when none).
  uint64_t StakeOf(const Address& addr) const;
  /// Moves `amount` from `addr`'s balance into its stake record.
  common::Status StakeBond(const Address& addr, uint64_t amount);
  /// Moves `amount` from `addr`'s stake record back to its balance.
  common::Status StakeRelease(const Address& addr, uint64_t amount);
  /// Confiscates `amount` from `offender`'s stake: `reporter_bps` basis
  /// points go to `reporter` as a bounty, the remainder is burned (added to
  /// the burned-total record, never to any balance). Exact: the three-way
  /// split always sums to `amount`.
  common::Status StakeSlash(const Address& offender, uint64_t amount,
                            const Address& reporter, uint32_t reporter_bps);
  /// Total tokens destroyed by slashing so far.
  uint64_t BurnedTotal() const;
  /// Sum of all bonded stakes.
  uint64_t TotalStaked() const;

  // --- Snapshots ------------------------------------------------------------

  /// Canonical byte serialization of the full state (accounts in address
  /// order, then storage spaces in name/key order). A restored state
  /// digests identically. Requires no open checkpoints.
  common::Bytes SerializeSnapshot() const;

  /// Rebuilds a state from SerializeSnapshot bytes. Corruption on any
  /// malformed input; never crashes.
  static common::Result<WorldState> DeserializeSnapshot(
      const common::Bytes& data);

 private:
  struct JournalEntry {
    enum class Kind { kAccount, kStorage } kind;
    // Account entries.
    Address addr;
    std::optional<Account> prior_account;
    // Storage entries.
    std::string space;
    common::Bytes key;
    std::optional<common::Bytes> prior_value;
  };

  using NodeHash = std::array<uint8_t, 32>;

  /// One contract-storage namespace and its cached space hash.
  struct Space {
    std::map<common::Bytes, common::Bytes> slots;
    mutable NodeHash hash{};
    mutable bool dirty = true;
  };

  void JournalAccount(const Address& addr);
  void JournalStorage(const std::string& space, const common::Bytes& key);
  /// Marks the bucket holding `addr` for re-hashing by the next Digest().
  void MarkAccountDirty(const Address& addr);
  /// Rebuilds every bucket and node hash for 2^bits buckets.
  void RebuildAccountTree(uint32_t bits) const;
  /// Re-hashes the dirty buckets and their paths to the tree root.
  void RefreshAccountTree() const;

  std::map<Address, Account> accounts_;
  /// Exact sum of every balance in accounts_ (RunningTotalBalance). 128 bits
  /// so that it never wraps, whatever a hand-built state holds.
  unsigned __int128 balance_total_ = 0;
  std::map<std::string, Space> storage_;
  std::vector<JournalEntry> journal_;
  std::vector<size_t> checkpoints_;  // journal sizes at Begin()

  // Account-tree cache behind Digest(), in heap layout: tree_[1] is the
  // root, tree_[B + b] the hash of bucket b, B = 2^bucket_bits_. Empty
  // until the first Digest(). A dirty bucket is in dirty_list_ exactly when
  // its bit in dirty_bits_ is set.
  mutable uint32_t bucket_bits_ = 0;
  mutable std::vector<NodeHash> tree_;
  mutable std::vector<uint64_t> dirty_bits_;
  mutable std::vector<uint32_t> dirty_list_;
};

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_STATE_H_
