#ifndef PDS2_STORAGE_CHAIN_STORE_H_
#define PDS2_STORAGE_CHAIN_STORE_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "common/result.h"

namespace pds2::storage {

/// Durability knobs for a ChainStore.
struct ChainStoreOptions {
  /// A WorldState snapshot is cut every `snapshot_interval` committed
  /// blocks (0 = never). Snapshots bound recovery replay: reopening loads
  /// the newest valid snapshot and re-executes only the log tail behind it.
  uint64_t snapshot_interval = 64;
  /// fsync every log record and snapshot before reporting it durable.
  /// Turning this off trades the post-OS-crash guarantee for throughput;
  /// process-crash tolerance (torn-tail truncation) is unaffected.
  bool fsync = true;
  /// Newest snapshot files retained after a successful snapshot write; the
  /// bounded on-disk footprint of the snapshot side.
  size_t keep_snapshots = 2;
  /// During recovery, additionally replay the whole chain from genesis on a
  /// scratch replica forced onto a single-thread pool and require the
  /// recovered state digest to bit-match it. Catches both a snapshot that
  /// is internally consistent but belongs to a different genesis. Costs
  /// O(chain), and only runs when recovery started from a snapshot —
  /// benchmarks turn it off to measure the snapshot speedup
  /// (EXPERIMENTS.md E13).
  bool paranoid_recovery = true;
};

/// What recovery found and did when a durable chain was reopened.
struct RecoveryInfo {
  uint64_t log_blocks = 0;       // CRC-valid blocks decoded from the log
  uint64_t truncated_bytes = 0;  // torn/corrupt log tail dropped on open
  bool used_snapshot = false;
  uint64_t snapshot_height = 0;  // height of the snapshot restored (if any)
  uint64_t replayed_blocks = 0;  // blocks re-executed through validation
};

/// The chain durability layer: an append-only, length-prefixed,
/// CRC-32C-checksummed block log plus periodic whole-state snapshots
/// written with a write-to-temp-then-rename protocol. Attached to a
/// Blockchain as its CommitListener, it persists every committed block
/// (ProduceBlock and ApplyExternalBlock) so a restarted process resumes
/// from disk instead of a genesis full-sync.
///
/// Crash model: a scripted common::CrashPoint (armed by chaos tests) stops
/// a write exactly where a SIGKILL would — possibly mid-record — and marks
/// the store dead; every later operation fails with Unavailable until the
/// directory is reopened. Recovery (OpenBlockchain) truncates a torn final
/// record, ignores unrenamed snapshot temp files, falls back across corrupt
/// snapshots, and verifies the recovered head state root before handing the
/// chain back.
///
/// On-disk layout under `dir`:
///   blocks.log          8-byte magic, then records [u32 len][u32 crc][block]
///   snapshot-<height>   8-byte magic, [u32 len][u32 crc][chain snapshot]
///   *.tmp               in-flight snapshot/log writes; garbage on reopen
class ChainStore : public chain::CommitListener {
 public:
  /// Opens (creating if needed) the store directory, scans the block log —
  /// validating record CRCs and truncating a torn tail in place — and
  /// removes leftover temp files. The decoded blocks are exposed via
  /// recovered_blocks() for OpenBlockchain to replay.
  static common::Result<std::unique_ptr<ChainStore>> Open(
      const std::string& dir, ChainStoreOptions options = {});

  ~ChainStore() override;
  ChainStore(const ChainStore&) = delete;
  ChainStore& operator=(const ChainStore&) = delete;

  /// CommitListener: appends the block; cuts a snapshot every
  /// snapshot_interval blocks. Failures (including scripted crashes) are
  /// recorded in last_error() — the in-memory chain is not rolled back.
  void OnBlockCommitted(const chain::Blockchain& chain,
                        const chain::Block& block) override;

  /// Appends one block record (length + CRC + payload) and fsyncs it.
  common::Status AppendBlock(const chain::Block& block);

  /// Writes a snapshot of the chain's current state atomically
  /// (temp + fsync + rename) and garbage-collects old snapshots.
  common::Status WriteSnapshot(const chain::Blockchain& chain);

  /// Replaces the entire log (and all snapshots) with the given chain's
  /// history — the fork-adoption path: the old log described an orphaned
  /// branch, so it is atomically rewritten, not appended to.
  common::Status Rewrite(const chain::Blockchain& chain);

  /// Blocks decoded from the log when the store was opened.
  const std::vector<chain::Block>& recovered_blocks() const {
    return recovered_blocks_;
  }
  /// Snapshot heights present on disk when opened (ascending).
  const std::vector<uint64_t>& snapshot_heights() const {
    return snapshot_heights_;
  }
  /// Reads and CRC-checks the snapshot file at `height`, returning the
  /// chain snapshot payload. Corruption on any mismatch; never crashes.
  common::Result<common::Bytes> LoadSnapshot(uint64_t height) const;

  /// Bytes of torn/corrupt log tail dropped when the store was opened.
  uint64_t truncated_bytes() const { return truncated_bytes_; }
  /// True after a scripted CrashPoint fired; reopen the directory to
  /// continue (mirrors a killed process).
  bool dead() const { return dead_; }
  /// Last append/snapshot failure observed by OnBlockCommitted.
  const common::Status& last_error() const { return last_error_; }
  uint64_t blocks_logged() const { return blocks_logged_; }
  uint64_t last_snapshot_height() const { return last_snapshot_height_; }
  const std::string& dir() const { return dir_; }
  const ChainStoreOptions& options() const { return options_; }

 private:
  ChainStore(std::string dir, ChainStoreOptions options);

  common::Status ScanLog();
  common::Status OpenAppendHandle();
  common::Status SyncFile(std::FILE* file);
  common::Status SyncDir();
  std::string LogPath() const;
  std::string SnapshotPath(uint64_t height) const;
  void GarbageCollectSnapshots();
  void CloseAppendHandle();

  std::string dir_;
  ChainStoreOptions options_;
  std::FILE* log_file_ = nullptr;  // append handle
  bool dead_ = false;
  common::Status last_error_;

  std::vector<chain::Block> recovered_blocks_;
  std::vector<uint64_t> record_end_offsets_;  // log offset after each block
  std::vector<uint64_t> snapshot_heights_;    // ascending
  uint64_t truncated_bytes_ = 0;
  uint64_t blocks_logged_ = 0;
  uint64_t last_snapshot_height_ = 0;
};

/// One genesis allocation for rebuilding a chain from an empty directory
/// (mirrors p2p::GenesisAlloc without depending on the p2p module).
struct GenesisAccount {
  chain::Address address;
  uint64_t amount = 0;
};

/// A recovered durable chain: the replica, its attached store (already
/// registered as the chain's commit listener), and what recovery did.
struct RecoveredChain {
  std::unique_ptr<chain::Blockchain> chain;
  std::unique_ptr<ChainStore> store;
  RecoveryInfo info;
};

/// Opens the durable chain in `dir`: loads the newest valid snapshot (if
/// any), replays the log tail through the normal block validation path, and
/// verifies the recovered head state root. An empty/missing directory
/// yields a fresh chain with the genesis allocations applied. The returned
/// chain persists every subsequent commit through the returned store.
///
/// `registry_factory` builds the contract registry for the replica (and for
/// the scratch replicas recovery verification needs); nullptr uses
/// chain::ContractRegistry::CreateDefault.
common::Result<RecoveredChain> OpenBlockchain(
    const std::string& dir, std::vector<common::Bytes> validator_public_keys,
    const std::vector<GenesisAccount>& genesis,
    chain::ChainConfig config = {}, ChainStoreOptions store_options = {},
    std::function<std::unique_ptr<chain::ContractRegistry>()>
        registry_factory = nullptr);

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_CHAIN_STORE_H_
