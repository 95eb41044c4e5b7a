#include "chain/state.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/bytes.h"
#include "common/checked_math.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace pds2::chain {

using common::Bytes;
using common::Status;

namespace {

common::Bytes EncodeStakeAmount(uint64_t amount) {
  common::Writer w;
  w.PutU64(amount);
  return w.Take();
}

uint64_t DecodeStakeAmount(const std::optional<Bytes>& value) {
  if (!value.has_value()) return 0;
  common::Reader r(*value);
  auto amount = r.GetU64();
  return amount.ok() ? *amount : 0;
}

common::Bytes BurnedKeyBytes() { return common::ToBytes(kBurnedKey); }

// --- State root encoding (docs/PROTOCOL.md "State root") --------------------
// Domain tags: none is a prefix of another, so the four hash kinds can never
// collide. Every variable-length field is u32-length-prefixed and every
// integer is fixed-width little-endian (common::Writer's encoding).
constexpr std::string_view kBucketTag = "pds2.state.v2.bucket";
constexpr std::string_view kNodeTag = "pds2.state.v2.node";
constexpr std::string_view kSpaceTag = "pds2.state.v2.space";
constexpr std::string_view kRootTag = "pds2.state.v2.root";

// Target accounts per bucket, and the widest bucket prefix (bucket start keys
// are 4 bytes long).
constexpr size_t kAccountsPerBucket = 16;
constexpr uint32_t kMaxBucketBits = 32;

void PutLe32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutLe64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void UpdateLengthPrefixed(crypto::Sha256& h, const uint8_t* data,
                          size_t len) {
  uint8_t prefix[4];
  PutLe32(prefix, static_cast<uint32_t>(len));
  h.Update(prefix, sizeof(prefix));
  h.Update(data, len);
}

void FinishInto(crypto::Sha256& h, std::array<uint8_t, 32>* out) {
  const Bytes digest = h.Finish();
  std::memcpy(out->data(), digest.data(), out->size());
}

// k for n accounts: B = 2^k is the smallest power of two >= ceil(n / 16).
uint32_t BucketBitsFor(size_t n) {
  const size_t want = (n + kAccountsPerBucket - 1) / kAccountsPerBucket;
  uint32_t bits = 0;
  while (bits < kMaxBucketBits && (size_t{1} << bits) < want) ++bits;
  return bits;
}

// Bucket b holds the addresses a with S_b <= a < S_{b+1} in byte order,
// where S_b is the 4-byte big-endian encoding of b << (32 - k). For an
// address of at least 4 bytes that is its top k bits; a shorter address
// sorts before every start key it is a proper prefix of.
uint32_t BucketOf(const Address& addr, uint32_t bits) {
  if (bits == 0) return 0;
  uint32_t p = 0;
  for (size_t i = 0; i < 4; ++i) {
    p = (p << 8) | (i < addr.size() ? addr[i] : 0);
  }
  if (addr.size() < 4 && p != 0) --p;
  return static_cast<uint32_t>(uint64_t{p} >> (32 - bits));
}

Bytes BucketStart(uint32_t bucket, uint32_t bits) {
  const uint32_t start =
      bits == 0 ? 0 : static_cast<uint32_t>(uint64_t{bucket} << (32 - bits));
  Bytes key(4);
  for (size_t i = 0; i < 4; ++i) {
    key[i] = static_cast<uint8_t>(start >> (24 - 8 * i));
  }
  return key;
}

// Hashes bucket `bucket` from `it`, the first account at or after its start
// key, into `out`. Returns the first account past the bucket.
std::map<Address, Account>::const_iterator HashBucket(
    std::map<Address, Account>::const_iterator it,
    std::map<Address, Account>::const_iterator end, uint32_t bucket,
    uint32_t bits, std::array<uint8_t, 32>* out) {
  crypto::Sha256 h;
  h.Update(kBucketTag);
  // Leaf: u32 address length || address || u64 balance || u64 nonce.
  uint8_t leaf[4 + kAddressSize + 16];
  for (; it != end && BucketOf(it->first, bits) == bucket; ++it) {
    const Address& addr = it->first;
    if (addr.size() == kAddressSize) {
      PutLe32(leaf, kAddressSize);
      std::memcpy(leaf + 4, addr.data(), kAddressSize);
      PutLe64(leaf + 4 + kAddressSize, it->second.balance);
      PutLe64(leaf + 12 + kAddressSize, it->second.nonce);
      h.Update(leaf, sizeof(leaf));
    } else {
      UpdateLengthPrefixed(h, addr.data(), addr.size());
      PutLe64(leaf, it->second.balance);
      PutLe64(leaf + 8, it->second.nonce);
      h.Update(leaf, 16);
    }
  }
  FinishInto(h, out);
  return it;
}

void HashNode(const std::array<uint8_t, 32>& left,
              const std::array<uint8_t, 32>& right,
              std::array<uint8_t, 32>* out) {
  crypto::Sha256 h;
  h.Update(kNodeTag);
  h.Update(left.data(), left.size());
  h.Update(right.data(), right.size());
  FinishInto(h, out);
}

void HashSpace(const std::map<Bytes, Bytes>& slots,
               std::array<uint8_t, 32>* out) {
  crypto::Sha256 h;
  h.Update(kSpaceTag);
  for (const auto& [key, value] : slots) {
    UpdateLengthPrefixed(h, key.data(), key.size());
    UpdateLengthPrefixed(h, value.data(), value.size());
  }
  FinishInto(h, out);
}

}  // namespace

uint64_t WorldState::StakeOf(const Address& addr) const {
  return DecodeStakeAmount(StorageGet(kStakeSpace, addr));
}

Status WorldState::StakeBond(const Address& addr, uint64_t amount) {
  uint64_t new_stake;
  if (!common::CheckedAdd(StakeOf(addr), amount, &new_stake)) {
    return Status::InvalidArgument("bond would overflow stake record");
  }
  PDS2_RETURN_IF_ERROR(Debit(addr, amount));
  StoragePut(kStakeSpace, addr, EncodeStakeAmount(new_stake));
  return Status::Ok();
}

Status WorldState::StakeRelease(const Address& addr, uint64_t amount) {
  const uint64_t stake = StakeOf(addr);
  if (stake < amount) {
    return Status::InsufficientFunds("stake below release amount");
  }
  PDS2_RETURN_IF_ERROR(Credit(addr, amount));
  if (stake == amount) {
    StorageDelete(kStakeSpace, addr);
  } else {
    StoragePut(kStakeSpace, addr, EncodeStakeAmount(stake - amount));
  }
  return Status::Ok();
}

Status WorldState::StakeSlash(const Address& offender, uint64_t amount,
                              const Address& reporter, uint32_t reporter_bps) {
  if (reporter_bps > kSlashBpsDenominator) {
    return Status::InvalidArgument("reporter share above 100%");
  }
  const uint64_t stake = StakeOf(offender);
  if (stake < amount) {
    return Status::InsufficientFunds("stake below slash amount");
  }
  // Exact split: bounty rounds down, the burn picks up the remainder, so
  // bounty + burn == amount with no drift.
  const uint64_t bounty = static_cast<uint64_t>(
      static_cast<unsigned __int128>(amount) * reporter_bps /
      kSlashBpsDenominator);
  const uint64_t burn = amount - bounty;
  uint64_t new_burned;
  if (!common::CheckedAdd(BurnedTotal(), burn, &new_burned)) {
    return Status::InvalidArgument("slash would overflow burned total");
  }
  PDS2_RETURN_IF_ERROR(Credit(reporter, bounty));
  if (stake == amount) {
    StorageDelete(kStakeSpace, offender);
  } else {
    StoragePut(kStakeSpace, offender, EncodeStakeAmount(stake - amount));
  }
  StoragePut(kStakeSpace, BurnedKeyBytes(), EncodeStakeAmount(new_burned));
  return Status::Ok();
}

uint64_t WorldState::BurnedTotal() const {
  return DecodeStakeAmount(StorageGet(kStakeSpace, BurnedKeyBytes()));
}

uint64_t WorldState::TotalStaked() const {
  uint64_t total = 0;
  for (const auto& [key, value] : StorageScan(kStakeSpace, {})) {
    if (key.size() != kAddressSize) continue;  // skip the burned-total record
    total = common::SaturatingAdd(total, DecodeStakeAmount(value));
  }
  return total;
}

uint64_t WorldState::GetBalance(const Address& addr) const {
  auto it = accounts_.find(addr);
  return it == accounts_.end() ? 0 : it->second.balance;
}

uint64_t WorldState::GetNonce(const Address& addr) const {
  auto it = accounts_.find(addr);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

void WorldState::JournalAccount(const Address& addr) {
  if (checkpoints_.empty()) return;
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kAccount;
  entry.addr = addr;
  auto it = accounts_.find(addr);
  if (it != accounts_.end()) entry.prior_account = it->second;
  journal_.push_back(std::move(entry));
}

void WorldState::JournalStorage(const std::string& space, const Bytes& key) {
  if (checkpoints_.empty()) return;
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kStorage;
  entry.space = space;
  entry.key = key;
  auto space_it = storage_.find(space);
  if (space_it != storage_.end()) {
    auto it = space_it->second.slots.find(key);
    if (it != space_it->second.slots.end()) entry.prior_value = it->second;
  }
  journal_.push_back(std::move(entry));
}

void WorldState::MarkAccountDirty(const Address& addr) {
  if (tree_.empty()) return;  // no tree yet: the first Digest() builds it
  const uint32_t bucket = BucketOf(addr, bucket_bits_);
  uint64_t& word = dirty_bits_[bucket / 64];
  const uint64_t bit = uint64_t{1} << (bucket % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  dirty_list_.push_back(bucket);
}

Status WorldState::Credit(const Address& addr, uint64_t amount) {
  uint64_t new_balance;
  if (!common::CheckedAdd(GetBalance(addr), amount, &new_balance)) {
    return Status::InvalidArgument("credit would overflow account balance");
  }
  JournalAccount(addr);
  MarkAccountDirty(addr);
  accounts_[addr].balance = new_balance;
  balance_total_ += amount;
  return Status::Ok();
}

Status WorldState::Debit(const Address& addr, uint64_t amount) {
  auto it = accounts_.find(addr);
  if (it == accounts_.end() || it->second.balance < amount) {
    return Status::InsufficientFunds("balance below debit amount");
  }
  JournalAccount(addr);
  MarkAccountDirty(addr);
  it->second.balance -= amount;
  balance_total_ -= amount;
  return Status::Ok();
}

Status WorldState::Transfer(const Address& from, const Address& to,
                            uint64_t amount) {
  // Guard the credit side *before* debiting so a failed transfer has no
  // side effects. With a capped total supply the credit cannot actually
  // overflow, but the check keeps Transfer safe on its own terms.
  uint64_t new_balance;
  if (!common::CheckedAdd(GetBalance(to), amount, &new_balance)) {
    return Status::InvalidArgument("transfer would overflow recipient");
  }
  PDS2_RETURN_IF_ERROR(Debit(from, amount));
  return Credit(to, amount);
}

void WorldState::BumpNonce(const Address& addr) {
  JournalAccount(addr);
  MarkAccountDirty(addr);
  accounts_[addr].nonce += 1;
}

void WorldState::PutAccount(const Address& addr, const Account& account) {
  JournalAccount(addr);
  MarkAccountDirty(addr);
  Account& slot = accounts_[addr];
  balance_total_ -= slot.balance;
  balance_total_ += account.balance;
  slot = account;
}

std::optional<Bytes> WorldState::StorageGet(const std::string& space,
                                            const Bytes& key) const {
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return std::nullopt;
  auto it = space_it->second.slots.find(key);
  if (it == space_it->second.slots.end()) return std::nullopt;
  return it->second;
}

bool WorldState::StoragePut(const std::string& space, const Bytes& key,
                            const Bytes& value) {
  JournalStorage(space, key);
  Space& target = storage_[space];
  target.dirty = true;
  auto [it, inserted] = target.slots.insert_or_assign(key, value);
  (void)it;
  return !inserted;
}

void WorldState::StorageDelete(const std::string& space, const Bytes& key) {
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return;
  if (space_it->second.slots.find(key) == space_it->second.slots.end()) return;
  JournalStorage(space, key);
  space_it->second.dirty = true;
  space_it->second.slots.erase(key);
}

std::vector<std::pair<Bytes, Bytes>> WorldState::StorageScan(
    const std::string& space, const Bytes& prefix) const {
  std::vector<std::pair<Bytes, Bytes>> out;
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return out;
  const auto& slots = space_it->second.slots;
  for (auto it = slots.lower_bound(prefix); it != slots.end(); ++it) {
    const Bytes& key = it->first;
    if (key.size() < prefix.size() ||
        !std::equal(prefix.begin(), prefix.end(), key.begin())) {
      break;
    }
    out.emplace_back(key, it->second);
  }
  return out;
}

void WorldState::Begin() { checkpoints_.push_back(journal_.size()); }

void WorldState::Commit() {
  assert(!checkpoints_.empty());
  const size_t mark = checkpoints_.back();
  checkpoints_.pop_back();
  // If an outer checkpoint is still open, keep the journal entries so the
  // outer Rollback can still undo; otherwise drop them.
  if (checkpoints_.empty()) {
    journal_.clear();
  } else {
    (void)mark;
  }
}

void WorldState::Rollback() {
  assert(!checkpoints_.empty());
  const size_t mark = checkpoints_.back();
  checkpoints_.pop_back();
  while (journal_.size() > mark) {
    const JournalEntry& entry = journal_.back();
    if (entry.kind == JournalEntry::Kind::kAccount) {
      MarkAccountDirty(entry.addr);
      balance_total_ -= GetBalance(entry.addr);
      if (entry.prior_account.has_value()) {
        accounts_[entry.addr] = *entry.prior_account;
        balance_total_ += entry.prior_account->balance;
      } else {
        accounts_.erase(entry.addr);
      }
    } else {
      if (entry.prior_value.has_value()) {
        Space& target = storage_[entry.space];
        target.dirty = true;
        target.slots[entry.key] = *entry.prior_value;
      } else {
        auto space_it = storage_.find(entry.space);
        if (space_it != storage_.end()) {
          space_it->second.dirty = true;
          space_it->second.slots.erase(entry.key);
        }
      }
    }
    journal_.pop_back();
  }
}

uint64_t WorldState::TotalBalance() const {
  // Saturating: CreditGenesis caps the minted supply below uint64, so in a
  // well-formed chain the sum is exact; a hand-built state that exceeds the
  // cap reads as uint64-max instead of a wrapped small number.
  uint64_t total = 0;
  for (const auto& [addr, account] : accounts_) {
    (void)addr;
    total = common::SaturatingAdd(total, account.balance);
  }
  return total;
}

uint64_t WorldState::RunningTotalBalance() const {
  return balance_total_ > UINT64_MAX ? UINT64_MAX
                                     : static_cast<uint64_t>(balance_total_);
}

common::Bytes WorldState::SerializeSnapshot() const {
  assert(checkpoints_.empty() && "snapshot inside an open transaction");
  common::Writer w;
  w.PutU64(accounts_.size());
  for (const auto& [addr, account] : accounts_) {
    w.PutBytes(addr);
    w.PutU64(account.balance);
    w.PutU64(account.nonce);
  }
  w.PutU64(storage_.size());
  for (const auto& [name, space] : storage_) {
    w.PutString(name);
    w.PutU64(space.slots.size());
    for (const auto& [key, value] : space.slots) {
      w.PutBytes(key);
      w.PutBytes(value);
    }
  }
  return w.Take();
}

common::Result<WorldState> WorldState::DeserializeSnapshot(
    const common::Bytes& data) {
  common::Reader r(data);
  WorldState state;
  PDS2_ASSIGN_OR_RETURN(uint64_t num_accounts, r.GetU64());
  for (uint64_t i = 0; i < num_accounts; ++i) {
    PDS2_ASSIGN_OR_RETURN(Address addr, r.GetBytes());
    Account account;
    PDS2_ASSIGN_OR_RETURN(account.balance, r.GetU64());
    PDS2_ASSIGN_OR_RETURN(account.nonce, r.GetU64());
    if (!state.accounts_.emplace(std::move(addr), account).second) {
      return Status::Corruption("duplicate account in state snapshot");
    }
    state.balance_total_ += account.balance;
  }
  PDS2_ASSIGN_OR_RETURN(uint64_t num_spaces, r.GetU64());
  for (uint64_t i = 0; i < num_spaces; ++i) {
    PDS2_ASSIGN_OR_RETURN(std::string space, r.GetString());
    auto [space_it, space_inserted] = state.storage_.try_emplace(space);
    if (!space_inserted) {
      return Status::Corruption("duplicate storage space in state snapshot");
    }
    PDS2_ASSIGN_OR_RETURN(uint64_t num_slots, r.GetU64());
    for (uint64_t j = 0; j < num_slots; ++j) {
      PDS2_ASSIGN_OR_RETURN(Bytes key, r.GetBytes());
      PDS2_ASSIGN_OR_RETURN(Bytes value, r.GetBytes());
      if (!space_it->second.slots.emplace(std::move(key), std::move(value))
               .second) {
        return Status::Corruption("duplicate storage key in state snapshot");
      }
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in state snapshot");
  }
  return state;
}

void WorldState::RebuildAccountTree(uint32_t bits) const {
  const uint32_t buckets = uint32_t{1} << bits;
  bucket_bits_ = bits;
  tree_.assign(2 * size_t{buckets}, NodeHash{});
  dirty_bits_.assign((buckets + 63) / 64, 0);
  dirty_list_.clear();
  // One ordered sweep: each bucket is the next contiguous run of accounts.
  auto it = accounts_.cbegin();
  for (uint32_t b = 0; b < buckets; ++b) {
    it = HashBucket(it, accounts_.cend(), b, bits, &tree_[buckets + b]);
  }
  for (uint32_t node = buckets - 1; node >= 1; --node) {
    HashNode(tree_[2 * node], tree_[2 * node + 1], &tree_[node]);
  }
  PDS2_M_COUNT("chain.state_root.buckets_rehashed", buckets);
}

void WorldState::RefreshAccountTree() const {
  if (dirty_list_.empty()) return;
  const uint32_t buckets = uint32_t{1} << bucket_bits_;
  std::vector<uint32_t> nodes;
  nodes.reserve(dirty_list_.size());
  for (uint32_t b : dirty_list_) {
    // Bucket 0 also holds the addresses sorting before its start key.
    const auto first =
        b == 0 ? accounts_.cbegin()
               : accounts_.lower_bound(BucketStart(b, bucket_bits_));
    HashBucket(first, accounts_.cend(), b, bucket_bits_, &tree_[buckets + b]);
    dirty_bits_[b / 64] &= ~(uint64_t{1} << (b % 64));
    nodes.push_back(buckets + b);
  }
  PDS2_M_COUNT("chain.state_root.buckets_rehashed", dirty_list_.size());
  dirty_list_.clear();
  // Climb one level at a time so a node shared by several dirty buckets is
  // hashed once.
  std::sort(nodes.begin(), nodes.end());
  while (nodes.front() > 1) {
    for (uint32_t& node : nodes) node /= 2;
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (uint32_t node : nodes) {
      HashNode(tree_[2 * node], tree_[2 * node + 1], &tree_[node]);
    }
  }
}

Hash WorldState::Digest() const {
  obs::ScopedSpan span("chain.state_root");
  PDS2_M_TIME_US("chain.state_root_us");
  const uint32_t bits = BucketBitsFor(accounts_.size());
  if (tree_.empty() || bits != bucket_bits_) {
    RebuildAccountTree(bits);
  } else {
    RefreshAccountTree();
  }
  crypto::Sha256 h;
  h.Update(kRootTag);
  const uint8_t k = static_cast<uint8_t>(bucket_bits_);
  h.Update(&k, 1);
  h.Update(tree_[1].data(), tree_[1].size());
  for (const auto& [name, space] : storage_) {
    if (space.dirty) {
      HashSpace(space.slots, &space.hash);
      space.dirty = false;
    }
    if (space.slots.empty()) continue;  // empty spaces are not committed
    UpdateLengthPrefixed(h, reinterpret_cast<const uint8_t*>(name.data()),
                         name.size());
    h.Update(space.hash.data(), space.hash.size());
  }
  return h.Finish();
}

}  // namespace pds2::chain
