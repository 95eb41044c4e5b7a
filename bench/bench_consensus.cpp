// E6b — Replicated governance under realistic networking (paper §III-A).
//
// The governance layer must stay consistent when validators communicate
// over a lossy wide-area network. This harness runs the full-mesh PoA
// validator network over the DES and reports chain progress, replica
// divergence and sync-protocol activity across packet-loss rates, plus
// block propagation under growing validator sets. Section (c) sweeps the
// thread count of parallel block validation (signature batch + tx root)
// and appends the "consensus" section of BENCH_parallel.json.
//
// Sections (d) and (e) are the E11 robustness experiment: (d) sweeps
// packet loss x validator churn with seeded FaultPlans and measures how
// many block intervals past the last fault the replicas need to converge;
// (e) sweeps the number of crash-scripted executors through the full
// marketplace lifecycle and measures the completion / refund split. Both
// write BENCH_robustness.json.
//
// Section (f) is the E13 durability experiment: recovery (reopen) time as
// a function of chain length and snapshot cadence — genesis full replay vs
// the snapshot-plus-log-tail shortcut. Writes BENCH_durability.json.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "chain/chain.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "dml/fault_injector.h"
#include "market/marketplace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/validator_network.h"
#include "storage/chain_store.h"

namespace {

using namespace pds2;

struct RunOutcome {
  uint64_t min_height = 0;
  uint64_t max_height = 0;
  uint64_t syncs = 0;
  uint64_t messages = 0;
  bool balances_agree = true;
};

RunOutcome Run(size_t validators, double drop_rate, uint64_t seed) {
  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("b")).PublicKey());
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 30 * common::kMicrosPerMilli;
  net.latency_jitter = 20 * common::kMicrosPerMilli;
  net.drop_rate = drop_rate;

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(validators, genesis,
                                       common::kMicrosPerSecond, net, seed,
                                       &nodes);
  sim->Start();

  // A trickle of transfers submitted at rotating validators.
  for (uint64_t i = 0; i < 10; ++i) {
    chain::Transaction tx = chain::Transaction::Make(
        alice, i, bob, 10, 100000, chain::CallPayload{});
    dml::NodeContext ctx(*sim, i % validators);
    (void)nodes[i % validators]->SubmitTransaction(tx, ctx);
    sim->RunUntil((i + 1) * 2 * common::kMicrosPerSecond);
  }
  sim->RunUntil(40 * common::kMicrosPerSecond);

  RunOutcome outcome;
  outcome.min_height = UINT64_MAX;
  uint64_t reference_balance = nodes[0]->chain().GetBalance(bob);
  for (p2p::ValidatorNode* node : nodes) {
    outcome.min_height = std::min(outcome.min_height, node->chain().Height());
    outcome.max_height = std::max(outcome.max_height, node->chain().Height());
    outcome.syncs += node->sync_requests_sent();
    if (node->chain().GetBalance(bob) != reference_balance) {
      outcome.balances_agree = false;
    }
  }
  outcome.messages = sim->stats().messages_sent;
  return outcome;
}

// --- (d) helpers: seeded fault schedules against the validator mesh. -------

bool Converged(const std::vector<p2p::ValidatorNode*>& nodes) {
  uint64_t min_h = UINT64_MAX, max_h = 0;
  for (p2p::ValidatorNode* node : nodes) {
    min_h = std::min(min_h, node->chain().Height());
    max_h = std::max(max_h, node->chain().Height());
  }
  if (min_h == 0 || max_h - min_h > 1) return false;
  // All replicas agree on the last block of the shortest chain.
  const auto& reference = nodes[0]->chain().blocks();
  for (p2p::ValidatorNode* node : nodes) {
    if (node->chain().blocks()[min_h - 1].header.Id() !=
        reference[min_h - 1].header.Id()) {
      return false;
    }
  }
  return true;
}

struct FaultyOutcome {
  bool converged = false;
  uint64_t blocks_to_converge = 0;  // intervals past the last fault
  uint64_t final_height = 0;
};

FaultyOutcome RunFaulty(double drop_rate, double churn_fraction,
                        uint64_t seed) {
  constexpr size_t kValidators = 4;
  constexpr common::SimTime kInterval = common::kMicrosPerSecond;
  constexpr uint64_t kMaxRecoveryIntervals = 30;

  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("b")).PublicKey());
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 30 * common::kMicrosPerMilli;
  net.latency_jitter = 20 * common::kMicrosPerMilli;
  net.drop_rate = drop_rate;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * kInterval;

  common::FaultProfile profile;
  profile.crash_fraction = churn_fraction;
  profile.min_downtime = 2 * kInterval;
  profile.max_downtime = 5 * kInterval;
  profile.num_partitions = churn_fraction > 0.0 ? 1 : 0;
  profile.min_partition = 3 * kInterval;
  profile.max_partition = 6 * kInterval;
  const common::FaultPlan plan =
      common::FaultPlan::Random(seed, kValidators, 20 * kInterval, profile);

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(kValidators, genesis, kInterval, net,
                                       seed, &nodes, chain_config);
  dml::FaultInjector::Install(*sim, plan);
  sim->Start();
  for (uint64_t i = 0; i < 4; ++i) {
    chain::Transaction tx = chain::Transaction::Make(alice, i, bob, 10, 100000,
                                                     chain::CallPayload{});
    dml::NodeContext ctx(*sim, i % kValidators);
    (void)nodes[i % kValidators]->SubmitTransaction(tx, ctx);
  }

  // Measure from the last scheduled fault, but never before a warmup of
  // plain lossy operation (a churn-free plan has no transitions at all).
  const common::SimTime last_fault =
      std::max(plan.LastTransition(), 10 * kInterval);
  sim->RunUntil(last_fault);

  FaultyOutcome outcome;
  for (uint64_t k = 0; k <= kMaxRecoveryIntervals; ++k) {
    sim->RunUntil(last_fault + k * kInterval);
    if (Converged(nodes)) {
      outcome.converged = true;
      outcome.blocks_to_converge = k;
      break;
    }
  }
  for (p2p::ValidatorNode* node : nodes) {
    outcome.final_height =
        std::max(outcome.final_height, node->chain().Height());
  }
  return outcome;
}

// --- (e) helpers: crash-scripted executors through the full lifecycle. -----

struct LifecycleOutcome {
  bool completed = false;
  bool refunded = false;  // failed AND the escrow came back to the consumer
};

LifecycleOutcome RunLifecycle(size_t faulty_executors, uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  market::Marketplace market(config);
  common::Rng rng(seed * 977 + faulty_executors);

  ml::Dataset all = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  auto parts = ml::PartitionWeighted(all, {1.0, 2.0, 3.0}, rng);
  for (int i = 0; i < 3; ++i) {
    market::ProviderAgent& provider =
        market.AddProvider("provider-" + std::to_string(i));
    storage::SemanticMetadata meta;
    meta.types = {"iot/sensor/temperature"};
    (void)provider.store().AddDataset("temps", parts[i], meta);
  }
  for (int i = 0; i < 3; ++i) market.AddExecutor("executor-" + std::to_string(i));
  market::ConsumerAgent& consumer = market.AddConsumer("consumer");

  // Script `faulty_executors` random executors to die at random stages.
  const market::ExecutorFault kStages[] = {
      market::ExecutorFault::kAttestation, market::ExecutorFault::kSetup,
      market::ExecutorFault::kTrain, market::ExecutorFault::kVote};
  std::vector<size_t> order = {0, 1, 2};
  rng.Shuffle(order);
  for (size_t i = 0; i < faulty_executors && i < order.size(); ++i) {
    market.executors()[order[i]]->InjectFault(kStages[rng.NextU64(4)]);
  }

  market::WorkloadSpec spec;
  spec.name = "robustness-sweep";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 100'000'000;
  spec.min_providers = 2;
  spec.executor_reward_permille = 200;

  const uint64_t consumer_before =
      market.chain().GetBalance(consumer.address());
  auto report = market.RunWorkload(consumer, spec);
  LifecycleOutcome outcome;
  if (report.ok()) {
    outcome.completed = true;
  } else {
    const uint64_t consumer_after =
        market.chain().GetBalance(consumer.address());
    // Refunded = the consumer lost at most gas, never the escrowed pool.
    outcome.refunded =
        consumer_before - consumer_after < spec.reward_pool / 2;
  }
  return outcome;
}

// --- (h) helpers: E16 Byzantine accountability sweep. ----------------------

struct ByzantineOutcome {
  // Number of honest-node pairs that disagree on their common prefix (the
  // safety claim requires this to be exactly 0).
  uint64_t honest_divergences = 0;
  bool offender_slashed = false;   // stake gone on every honest replica
  bool supply_conserved = true;    // balances + stakes + burned invariant
  // Per-honest-node (height, head id, state digest) for the thread-count
  // determinism check: two runs are "identical" iff these match bit-for-bit.
  std::vector<std::pair<uint64_t, common::Bytes>> honest_heads;
  std::vector<common::Bytes> honest_digests;
};

ByzantineOutcome RunByzantineCell(common::ByzantineBehavior behavior,
                                  uint64_t seed,
                                  common::ThreadPool* pool = nullptr) {
  constexpr uint64_t kStake = 1'000'000;
  constexpr size_t kValidators = 4;
  constexpr size_t kOffender = 1;
  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * common::kMicrosPerSecond;
  chain_config.validator_stake = kStake;
  chain_config.thread_pool = pool;

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(kValidators, genesis,
                                       common::kMicrosPerSecond, net, seed,
                                       &nodes, chain_config);
  nodes[kOffender]->SetByzantine(behavior);
  sim->Start();
  sim->RunUntil(30 * common::kMicrosPerSecond);

  const uint64_t expected_supply = 1'000'000'000 + kValidators * kStake;
  const chain::Address offender_addr = chain::AddressFromPublicKey(
      nodes[0]->chain().validators()[kOffender]);

  ByzantineOutcome o;
  o.offender_slashed = true;
  std::vector<size_t> honest;
  for (size_t i = 0; i < kValidators; ++i) {
    if (i != kOffender) honest.push_back(i);
  }
  uint64_t min_height = UINT64_MAX;
  for (size_t i : honest) {
    min_height = std::min(min_height, nodes[i]->chain().Height());
    if (nodes[i]->chain().TotalSupply() != expected_supply) {
      o.supply_conserved = false;
    }
    if (nodes[i]->chain().StakeOf(offender_addr) != 0) {
      o.offender_slashed = false;
    }
    o.honest_heads.emplace_back(nodes[i]->chain().Height(),
                                nodes[i]->chain().LastBlockHash());
    o.honest_digests.push_back(nodes[i]->chain().StateDigest());
  }
  // Pairwise common-prefix agreement across honest replicas.
  const auto& reference = nodes[honest[0]]->chain().blocks();
  for (size_t i : honest) {
    const auto& blocks = nodes[i]->chain().blocks();
    const size_t common_len =
        std::min<size_t>({blocks.size(), reference.size(), min_height});
    for (size_t b = 0; b < common_len; ++b) {
      if (blocks[b].header.Id() != reference[b].header.Id()) {
        ++o.honest_divergences;
        break;
      }
    }
  }
  return o;
}

struct ByzantineLifecycleOutcome {
  bool completed = false;
  bool cheater_slashed = false;
  bool supply_conserved = false;
  uint64_t tokens_burned = 0;
};

// One marketplace run with 3 bonded executors, one scripted to cheat.
ByzantineLifecycleOutcome RunByzantineLifecycle(market::ExecutorFault fault,
                                                uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  market::Marketplace market(config);
  common::Rng rng(seed * 1361 + static_cast<uint64_t>(fault));

  ml::Dataset all = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  auto parts = ml::PartitionWeighted(all, {1.0, 2.0, 3.0}, rng);
  for (int i = 0; i < 3; ++i) {
    market::ProviderAgent& provider =
        market.AddProvider("provider-" + std::to_string(i));
    storage::SemanticMetadata meta;
    meta.types = {"iot/sensor/temperature"};
    (void)provider.store().AddDataset("temps", parts[i], meta);
  }
  for (int i = 0; i < 3; ++i) {
    market.AddExecutor("executor-" + std::to_string(i));
  }
  market::ConsumerAgent& consumer = market.AddConsumer("consumer");
  const size_t cheater = rng.NextU64(3);
  market.executors()[cheater]->InjectFault(fault);
  const std::string cheater_name = market.executors()[cheater]->name();

  market::WorkloadSpec spec;
  spec.name = "byzantine-sweep";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 100'000'000;
  spec.min_providers = 2;
  spec.executor_reward_permille = 200;
  spec.executor_stake = 50'000'000;

  const uint64_t supply_before = market.chain().TotalSupply();
  auto report = market.RunWorkload(consumer, spec);
  ByzantineLifecycleOutcome outcome;
  outcome.supply_conserved = market.chain().TotalSupply() == supply_before;
  if (report.ok()) {
    outcome.completed = true;
    outcome.cheater_slashed =
        report->slashed_executors.count(cheater_name) > 0;
    outcome.tokens_burned = report->tokens_burned;
  }
  return outcome;
}

const char* BehaviorName(common::ByzantineBehavior b) {
  switch (b) {
    case common::ByzantineBehavior::kEquivocate: return "equivocate";
    case common::ByzantineBehavior::kInvalidStateRoot: return "invalid_root";
    case common::ByzantineBehavior::kGasCheat: return "gas_cheat";
    case common::ByzantineBehavior::kWithhold: return "withhold";
    default: return "none";
  }
}

}  // namespace

int main() {
  bench::Banner("E6b: replicated governance over a lossy network",
                "replicas converge; the sync protocol absorbs packet loss");

  std::printf("-- (a) packet-loss sweep (4 validators, 40 s) --\n");
  std::printf("%10s %12s %12s %10s %12s %14s\n", "loss", "min height",
              "max height", "syncs", "messages", "state agree");
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    RunOutcome o = Run(4, loss, 11);
    std::printf("%10.2f %12llu %12llu %10llu %12llu %14s\n", loss,
                static_cast<unsigned long long>(o.min_height),
                static_cast<unsigned long long>(o.max_height),
                static_cast<unsigned long long>(o.syncs),
                static_cast<unsigned long long>(o.messages),
                o.balances_agree ? "yes" : "NO");
  }

  std::printf("\n-- (b) validator-set sweep (5%% loss) --\n");
  std::printf("%12s %12s %12s %14s\n", "validators", "min height",
              "messages", "msgs/block");
  for (size_t n : {3u, 5u, 9u, 13u}) {
    RunOutcome o = Run(n, 0.05, 13);
    std::printf("%12zu %12llu %12llu %14.0f\n", n,
                static_cast<unsigned long long>(o.min_height),
                static_cast<unsigned long long>(o.messages),
                o.min_height > 0
                    ? static_cast<double>(o.messages) /
                          static_cast<double>(o.min_height)
                    : 0.0);
  }
  std::printf("\n(full-mesh broadcast: traffic grows quadratically in the "
              "validator count — PoA committees stay small)\n");

  // --- (c) parallel block validation thread sweep. --------------------------
  std::printf("\n-- (c) parallel block validation (128 transfers/block) --\n");
  {
    using namespace pds2;
    using chain::Blockchain;
    using chain::ChainConfig;
    using chain::ContractRegistry;

    constexpr size_t kTxs = 128;
    constexpr int kReps = 3;
    crypto::SigningKey validator =
        crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
    crypto::SigningKey alice =
        crypto::SigningKey::FromSeed(common::ToBytes("alice"));
    const chain::Address bob = chain::AddressFromPublicKey(
        crypto::SigningKey::FromSeed(common::ToBytes("bob")).PublicKey());
    const chain::Address alice_addr =
        chain::AddressFromPublicKey(alice.PublicKey());

    Blockchain producer({validator.PublicKey()},
                        ContractRegistry::CreateDefault());
    (void)producer.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
    std::vector<chain::Transaction> txs;
    for (size_t i = 0; i < kTxs; ++i) {
      txs.push_back(chain::Transaction::Make(alice, i, bob, 1, 100000,
                                             chain::CallPayload{}));
      (void)producer.SubmitTransaction(txs.back());
    }
    auto block = producer.ProduceBlock(validator, 1);
    if (!block.ok()) {
      std::printf("block production failed: %s\n",
                  block.status().ToString().c_str());
      return 1;
    }

    // The pre-batching baseline: one Schnorr verification per transaction,
    // exactly what VerifyBlockSignatures did before the batch-equation path.
    bench::Timer per_entry_timer;
    for (const auto& tx : block->transactions) {
      if (!tx.VerifySignature().ok()) {
        std::printf("signature rejected\n");
        return 1;
      }
    }
    const double per_entry_ms = per_entry_timer.ElapsedMs();
    std::printf("per-entry verification baseline: %.2f ms for %zu txs\n",
                per_entry_ms, kTxs);

    std::vector<size_t> thread_counts = {
        1, 2, 4, common::ThreadPool::DefaultThreadCount()};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());

    std::printf("%10s %14s %10s\n", "threads", "apply ms", "speedup");
    double base_ms = 0.0;
    std::string sweep_json;
    for (size_t threads : thread_counts) {
      common::ThreadPool pool(threads);
      ChainConfig config;
      config.thread_pool = &pool;
      double best_ms = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        // Fresh replica each repetition: the signature cache is cold, so
        // every signature in the block is actually checked on the pool.
        Blockchain replica({validator.PublicKey()},
                           ContractRegistry::CreateDefault(), config);
        (void)replica.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
        bench::Timer timer;
        if (!replica.ApplyExternalBlock(*block).ok()) {
          std::printf("replica rejected the block\n");
          return 1;
        }
        const double ms = timer.ElapsedMs();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (base_ms == 0.0) base_ms = best_ms;
      const double speedup = best_ms > 0.0 ? base_ms / best_ms : 0.0;
      std::printf("%10zu %14.2f %10.2f\n", threads, best_ms, speedup);
      char entry[128];
      std::snprintf(entry, sizeof(entry),
                    "%s\n      {\"threads\": %zu, \"apply_ms\": %.3f, "
                    "\"speedup\": %.3f}",
                    sweep_json.empty() ? "" : ",", threads, best_ms, speedup);
      sweep_json += entry;
    }

    // The shared verification cache: a replica that already admitted every
    // transaction to its mempool re-checks nothing at block arrival.
    Blockchain warm({validator.PublicKey()}, ContractRegistry::CreateDefault());
    (void)warm.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
    for (const auto& tx : txs) (void)warm.SubmitTransaction(tx);
    const uint64_t before = warm.SignatureVerifications();
    bench::Timer warm_timer;
    const bool warm_ok = warm.ApplyExternalBlock(*block).ok();
    const double warm_ms = warm_timer.ElapsedMs();
    const uint64_t extra = warm.SignatureVerifications() - before;
    std::printf("cached path: apply after submitting all %zu txs -> %llu "
                "extra verifies, %.2f ms%s\n",
                kTxs, static_cast<unsigned long long>(extra), warm_ms,
                warm_ok ? "" : " (REJECTED)");

    char section[320];
    std::snprintf(section, sizeof(section),
                  "{\n    \"txs_per_block\": %zu,\n"
                  "    \"per_entry_verify_ms\": %.3f,\n"
                  "    \"cached_apply_extra_verifies\": %llu,\n"
                  "    \"cached_apply_ms\": %.3f,\n    \"sweep\": [",
                  kTxs, per_entry_ms,
                  static_cast<unsigned long long>(extra), warm_ms);
    bench::MergeParallelReport(
        "consensus", std::string(section) + sweep_json + "\n    ]\n  }");
    std::printf("wrote BENCH_parallel.json (consensus section)\n");
  }

  // --- (d) robustness: loss x churn -> blocks to converge. ------------------
  std::printf("\n-- (d) fault sweep: loss x churn fraction (4 validators, "
              "proposer grace 4 intervals, 5 seeds/cell) --\n");
  std::printf("%8s %8s %12s %18s %12s\n", "loss", "churn", "converged",
              "blocks-to-converge", "max height");
  constexpr uint64_t kSeedsPerCell = 5;
  std::string convergence_cells;
  for (double loss : {0.0, 0.1, 0.2}) {
    for (double churn : {0.0, 0.25, 0.5}) {
      uint64_t converged = 0, recovery_blocks = 0, max_height = 0;
      for (uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
        const FaultyOutcome o = RunFaulty(loss, churn, seed);
        if (o.converged) {
          ++converged;
          recovery_blocks += o.blocks_to_converge;
        }
        max_height = std::max(max_height, o.final_height);
      }
      const double rate =
          static_cast<double>(converged) / static_cast<double>(kSeedsPerCell);
      const double avg_blocks =
          converged > 0 ? static_cast<double>(recovery_blocks) /
                              static_cast<double>(converged)
                        : -1.0;
      std::printf("%8.2f %8.2f %11.0f%% %18.1f %12llu\n", loss, churn,
                  rate * 100.0, avg_blocks,
                  static_cast<unsigned long long>(max_height));
      char cell[192];
      std::snprintf(cell, sizeof(cell),
                    "%s\n      {\"drop_rate\": %.2f, \"churn_fraction\": "
                    "%.2f, \"converged_rate\": %.2f, "
                    "\"avg_blocks_to_converge\": %.1f}",
                    convergence_cells.empty() ? "" : ",", loss, churn, rate,
                    avg_blocks);
      convergence_cells += cell;
    }
  }
  bench::MergeParallelReport(
      "convergence_sweep",
      "{\n    \"validators\": 4,\n    \"grace_intervals\": 4,\n"
      "    \"seeds_per_cell\": 5,\n    \"cells\": [" +
          convergence_cells + "\n    ]\n  }",
      "BENCH_robustness.json");

  // --- (e) robustness: executor crashes -> lifecycle completion. ------------
  std::printf("\n-- (e) lifecycle sweep: crash-scripted executors of 3 "
              "(5 seeds/cell) --\n");
  std::printf("%8s %12s %10s %10s\n", "faulty", "completed", "refunded",
              "stranded");
  std::string lifecycle_cells;
  bool any_stranded = false;
  for (size_t faulty = 0; faulty <= 3; ++faulty) {
    uint64_t completed = 0, refunded = 0;
    for (uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
      const LifecycleOutcome o = RunLifecycle(faulty, seed);
      if (o.completed) ++completed;
      if (o.refunded) ++refunded;
    }
    const uint64_t stranded = kSeedsPerCell - completed - refunded;
    if (stranded > 0) any_stranded = true;
    std::printf("%8zu %11llu%% %9llu%% %9llu%%\n", faulty,
                static_cast<unsigned long long>(completed * 100 /
                                                kSeedsPerCell),
                static_cast<unsigned long long>(refunded * 100 /
                                                kSeedsPerCell),
                static_cast<unsigned long long>(stranded * 100 /
                                                kSeedsPerCell));
    char cell[160];
    std::snprintf(cell, sizeof(cell),
                  "%s\n      {\"faulty_executors\": %zu, "
                  "\"completion_rate\": %.2f, \"refund_rate\": %.2f}",
                  lifecycle_cells.empty() ? "" : ",", faulty,
                  static_cast<double>(completed) /
                      static_cast<double>(kSeedsPerCell),
                  static_cast<double>(refunded) /
                      static_cast<double>(kSeedsPerCell));
    lifecycle_cells += cell;
  }
  bench::MergeParallelReport(
      "lifecycle_completion",
      "{\n    \"executors\": 3,\n    \"seeds_per_cell\": 5,\n"
      "    \"cells\": [" +
          lifecycle_cells + "\n    ]\n  }",
      "BENCH_robustness.json");
  std::printf("\n%s\nwrote BENCH_robustness.json\n",
              any_stranded
                  ? "WARNING: some failed runs did not refund the escrow"
                  : "liveness: every run completed or refunded the escrow");

  // --- (f) E13 durability: recovery time vs chain length & cadence. ---------
  std::printf("\n-- (f) E13 durability: recovery time vs chain length & "
              "snapshot cadence --\n");
  {
    namespace fs = std::filesystem;
    const std::string root =
        (fs::temp_directory_path() / "pds2_bench_durability").string();
    fs::remove_all(root);
    crypto::SigningKey validator =
        crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
    crypto::SigningKey alice =
        crypto::SigningKey::FromSeed(common::ToBytes("alice"));
    const chain::Address alice_addr =
        chain::AddressFromPublicKey(alice.PublicKey());
    const chain::Address bob = chain::AddressFromPublicKey(
        crypto::SigningKey::FromSeed(common::ToBytes("bob")).PublicKey());
    constexpr int kTxsPerBlock = 4;

    std::printf("%8s %10s %10s %10s %12s %10s\n", "blocks", "interval",
                "snapshot", "replayed", "recover ms", "log KiB");
    std::string cells;
    double full_replay_ms = 0.0;  // same-length baseline for the speedup line
    // Not multiples of the snapshot interval, so the snapshot cells also
    // exercise the log-tail replay behind the newest snapshot.
    for (uint64_t blocks : {60u, 250u, 500u}) {
      for (uint64_t interval : {0u, 16u, 64u}) {
        const std::string dir = root + "/n" + std::to_string(blocks) + "-k" +
                                std::to_string(interval);
        storage::ChainStoreOptions opts;
        opts.snapshot_interval = interval;
        // We time the replay, not the disk flushes, and measure the raw
        // snapshot shortcut (the paranoid cross-check would re-replay).
        opts.fsync = false;
        opts.paranoid_recovery = false;
        const std::vector<storage::GenesisAccount> genesis = {
            {alice_addr, 1'000'000'000'000ULL}};
        {
          auto rec = storage::OpenBlockchain(dir, {validator.PublicKey()},
                                             genesis, {}, opts);
          if (!rec.ok()) {
            std::printf("durable open failed: %s\n",
                        rec.status().ToString().c_str());
            return 1;
          }
          common::SimTime now = 0;
          for (uint64_t b = 0; b < blocks; ++b) {
            for (int t = 0; t < kTxsPerBlock; ++t) {
              (void)rec->chain->SubmitTransaction(chain::Transaction::Make(
                  alice, rec->chain->GetNonce(alice_addr) + t, bob, 1, 100000,
                  chain::CallPayload{}));
            }
            auto block = rec->chain->ProduceBlock(validator, ++now);
            if (!block.ok()) {
              std::printf("block production failed: %s\n",
                          block.status().ToString().c_str());
              return 1;
            }
          }
        }

        bench::Timer timer;
        auto rec = storage::OpenBlockchain(dir, {validator.PublicKey()},
                                           genesis, {}, opts);
        const double ms = timer.ElapsedMs();
        if (!rec.ok() || rec->chain->Height() != blocks) {
          std::printf("recovery failed for %llu blocks / interval %llu\n",
                      static_cast<unsigned long long>(blocks),
                      static_cast<unsigned long long>(interval));
          return 1;
        }
        if (interval == 0) full_replay_ms = ms;
        const double log_kib =
            static_cast<double>(fs::file_size(dir + "/blocks.log")) / 1024.0;
        double snapshot_kib = 0.0;
        if (rec->info.used_snapshot) {
          snapshot_kib = static_cast<double>(fs::file_size(
                             dir + "/snapshot-" +
                             std::to_string(rec->info.snapshot_height))) /
                         1024.0;
        }
        std::printf("%8llu %10llu %10s %10llu %12.2f %10.1f\n",
                    static_cast<unsigned long long>(blocks),
                    static_cast<unsigned long long>(interval),
                    rec->info.used_snapshot ? "yes" : "no",
                    static_cast<unsigned long long>(rec->info.replayed_blocks),
                    ms, log_kib);
        char cell[256];
        std::snprintf(
            cell, sizeof(cell),
            "%s\n      {\"blocks\": %llu, \"snapshot_interval\": %llu, "
            "\"used_snapshot\": %s, \"replayed_blocks\": %llu, "
            "\"recovery_ms\": %.3f, \"speedup_vs_full_replay\": %.2f, "
            "\"log_kib\": %.1f, \"snapshot_kib\": %.1f}",
            cells.empty() ? "" : ",", static_cast<unsigned long long>(blocks),
            static_cast<unsigned long long>(interval),
            rec->info.used_snapshot ? "true" : "false",
            static_cast<unsigned long long>(rec->info.replayed_blocks), ms,
            ms > 0.0 ? full_replay_ms / ms : 0.0, log_kib, snapshot_kib);
        cells += cell;
      }
    }
    fs::remove_all(root);
    bench::MergeParallelReport(
        "recovery_sweep",
        "{\n    \"txs_per_block\": 4,\n    \"fsync\": false,\n"
        "    \"paranoid_recovery\": false,\n    \"cells\": [" +
            cells + "\n    ]\n  }",
        "BENCH_durability.json");
    std::printf("wrote BENCH_durability.json (recovery section)\n"
                "(snapshots bound recovery to the log tail behind the newest "
                "snapshot; full replay grows linearly with chain length)\n");
  }

  // --- (g) E15 parallel execution: sustained load, conflict sweep. ----------
  std::printf("\n-- (g) E15 parallel tx execution: 100k accounts, 1000-tx "
              "blocks, conflict sweep --\n");
  {
    using chain::Blockchain;
    using chain::ChainConfig;
    using chain::ContractRegistry;

    constexpr size_t kAccounts = 100'000;
    constexpr size_t kLoadTxs = 1'000;  // transfers per block
    constexpr size_t kBlocks = 2;       // sustained: back-to-back full blocks

    crypto::SigningKey validator =
        crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
    auto derived_address = [](const std::string& tag) {
      common::Bytes h = crypto::Sha256::Hash(tag);
      h.resize(chain::kAddressSize);
      return h;
    };

    std::vector<crypto::SigningKey> senders;
    senders.reserve(kLoadTxs);
    std::vector<chain::Address> sender_addrs;
    sender_addrs.reserve(kLoadTxs);
    for (size_t i = 0; i < kLoadTxs; ++i) {
      senders.push_back(crypto::SigningKey::FromSeed(
          common::ToBytes("par-sender-" + std::to_string(i))));
      sender_addrs.push_back(
          chain::AddressFromPublicKey(senders.back().PublicKey()));
    }

    auto make_chain = [&](common::ThreadPool* pool, size_t accounts) {
      ChainConfig config;
      config.thread_pool = pool;
      Blockchain bc({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                    config);
      for (size_t i = 0; i < kLoadTxs; ++i) {
        (void)bc.CreditGenesis(sender_addrs[i], 1'000'000'000ULL);
      }
      // Filler accounts up to kAccounts so state digests and account-map
      // operations run at a realistic (not toy) state size.
      for (size_t i = kLoadTxs; i < accounts; ++i) {
        (void)bc.CreditGenesis(derived_address("par-filler-" +
                                               std::to_string(i)),
                               1);
      }
      // The genesis state commitment (the first root builds the whole
      // bucket tree), so timed applies pay only their incremental roots.
      (void)bc.StateDigest();
      return bc;
    };

    obs::SetMetricsEnabled(true);
    // The digest column sums the chain.state_root spans of the timed
    // replica applies, traced (a handful of spans per block).
    auto state_root_ms = [] {
      double ns = 0.0;
      for (const obs::SpanRecord& span : obs::Tracer::Global().Snapshot()) {
        if (span.name == "chain.state_root" && span.wall_end_ns != 0) {
          ns += static_cast<double>(span.wall_end_ns - span.wall_start_ns);
        }
      }
      return ns / 1e6;
    };
    std::printf("%10s %8s %12s %12s %16s\n", "conflict", "threads",
                "apply ms", "digest ms", "speedup vs seq");
    // Produces kBlocks sustained-load blocks on a fresh chain of `accounts`
    // accounts; conflict% of each block's transfers hit one hot account.
    auto produce_blocks = [&](int conflict, size_t accounts,
                              std::vector<chain::Block>* blocks) {
      Blockchain producer = make_chain(nullptr, accounts);
      const chain::Address hot =
          derived_address("par-hot-" + std::to_string(conflict));
      for (size_t b = 0; b < kBlocks; ++b) {
        for (size_t i = 0; i < kLoadTxs; ++i) {
          // Bresenham spread: exactly conflict% of the block's transfers
          // land on the shared hot account, evenly interleaved.
          const bool contended =
              ((i + 1) * static_cast<size_t>(conflict)) / 100 >
              (i * static_cast<size_t>(conflict)) / 100;
          const chain::Address to =
              contended ? hot
                        : derived_address("par-cold-" + std::to_string(b) +
                                          "-" + std::to_string(i));
          (void)producer.SubmitTransaction(chain::Transaction::Make(
              senders[i], b, to, 1, 100000, chain::CallPayload{}));
        }
        auto block = producer.ProduceBlock(validator, b + 1);
        if (!block.ok() || block->transactions.size() != kLoadTxs) {
          return false;
        }
        blocks->push_back(*std::move(block));
      }
      return true;
    };
    std::string cells;
    for (int conflict : {0, 25, 50, 100}) {
      // Produce the sustained-load blocks once per conflict rate.
      std::vector<chain::Block> blocks;
      if (!produce_blocks(conflict, kAccounts, &blocks)) {
        std::printf("parallel_exec: block production failed\n");
        return 1;
      }

      // Sequential baseline per block: one Schnorr verification per
      // transaction plus strictly serial execution.
      bench::Timer per_entry_timer;
      for (const chain::Block& block : blocks) {
        for (const auto& tx : block.transactions) {
          if (!tx.VerifySignature().ok()) {
            std::printf("parallel_exec: signature rejected\n");
            return 1;
          }
        }
      }
      const double per_entry_ms =
          per_entry_timer.ElapsedMs() / static_cast<double>(kBlocks);

      double serial_exec_ms = 0.0;
      {
        // Warm the verification cache via the mempool, then apply on a
        // one-thread pool: the timed section is execution + digests only.
        common::ThreadPool pool(1);
        Blockchain warm = make_chain(&pool, kAccounts);
        for (const chain::Block& block : blocks) {
          for (const auto& tx : block.transactions) {
            (void)warm.SubmitTransaction(tx);
          }
          bench::Timer timer;
          if (!warm.ApplyExternalBlock(block).ok()) {
            std::printf("parallel_exec: warm replica rejected the block\n");
            return 1;
          }
          serial_exec_ms += timer.ElapsedMs();
        }
        serial_exec_ms /= static_cast<double>(kBlocks);
      }
      const double baseline_ms = per_entry_ms + serial_exec_ms;

      constexpr size_t kThreadCounts[] = {1, 2, 4};
      double apply_ms[3] = {0.0, 0.0, 0.0};
      double digest_ms[3] = {0.0, 0.0, 0.0};
      obs::SetTracingEnabled(true);
      for (size_t t = 0; t < 3; ++t) {
        common::ThreadPool pool(kThreadCounts[t]);
        Blockchain replica = make_chain(&pool, kAccounts);
        obs::Tracer::Global().Reset();
        for (const chain::Block& block : blocks) {
          bench::Timer timer;
          if (!replica.ApplyExternalBlock(block).ok()) {
            std::printf("parallel_exec: replica rejected the block\n");
            return 1;
          }
          apply_ms[t] += timer.ElapsedMs();
        }
        apply_ms[t] /= static_cast<double>(kBlocks);
        digest_ms[t] = state_root_ms() / static_cast<double>(kBlocks);
        std::printf("%9d%% %8zu %12.2f %12.2f %16.2f\n", conflict,
                    kThreadCounts[t], apply_ms[t], digest_ms[t],
                    apply_ms[t] > 0.0 ? baseline_ms / apply_ms[t] : 0.0);
      }
      obs::SetTracingEnabled(false);

      char cell[512];
      std::snprintf(
          cell, sizeof(cell),
          "%s\n      {\"conflict_pct\": %d, \"per_entry_verify_ms\": %.3f, "
          "\"serial_exec_ms\": %.3f, \"sequential_baseline_ms\": %.3f, "
          "\"apply_ms_1t\": %.3f, \"apply_ms_2t\": %.3f, "
          "\"apply_ms_4t\": %.3f, \"speedup_vs_sequential_4t\": %.2f}",
          cells.empty() ? "" : ",", conflict, per_entry_ms, serial_exec_ms,
          baseline_ms, apply_ms[0], apply_ms[1], apply_ms[2],
          apply_ms[2] > 0.0 ? baseline_ms / apply_ms[2] : 0.0);
      cells += cell;
    }

    // Print-only: per-block apply against state size, 1 thread, 0% conflict,
    // metrics off. The incremental state root and the running supply total
    // keep apply nearly flat in the account count. Not recorded in
    // BENCH_parallel.json.
    obs::SetMetricsEnabled(false);
    std::printf("%10s %8s %12s %12s   (1 thread, 0%% conflict, metrics off)\n",
                "accounts", "threads", "apply ms", "digest ms");
    for (size_t accounts : {kAccounts, size_t{1'000'000}}) {
      std::vector<chain::Block> blocks;
      if (!produce_blocks(0, accounts, &blocks)) {
        std::printf("parallel_exec: block production failed\n");
        return 1;
      }
      common::ThreadPool pool(1);
      Blockchain replica = make_chain(&pool, accounts);
      double apply_ms = 0.0;
      obs::SetTracingEnabled(true);
      obs::Tracer::Global().Reset();
      for (const chain::Block& block : blocks) {
        bench::Timer timer;
        if (!replica.ApplyExternalBlock(block).ok()) {
          std::printf("parallel_exec: replica rejected the block\n");
          return 1;
        }
        apply_ms += timer.ElapsedMs();
      }
      obs::SetTracingEnabled(false);
      std::printf("%10zu %8d %12.2f %12.2f\n", accounts, 1,
                  apply_ms / static_cast<double>(kBlocks),
                  state_root_ms() / static_cast<double>(kBlocks));
    }
    obs::Tracer::Global().Reset();

    bench::MergeParallelReport(
        "parallel_exec",
        "{\n    \"accounts\": " + std::to_string(kAccounts) +
            ",\n    \"txs_per_block\": " + std::to_string(kLoadTxs) +
            ",\n    \"blocks_per_cell\": " + std::to_string(kBlocks) +
            ",\n    \"hardware_threads\": " +
            std::to_string(common::ThreadPool::DefaultThreadCount()) +
            ",\n    \"note\": \"sequential baseline = per-entry signature "
            "verification + serial execution; transactions always execute "
            "serially, so the speedup is delivered by batched Schnorr "
            "verification on the pool\","
            "\n    \"cells\": [" +
            cells + "\n    ]\n  }");
    std::printf("wrote BENCH_parallel.json (parallel_exec section)\n");
  }

  // --- (h) E16 Byzantine accountability sweep. ------------------------------
  std::printf("\n-- (h) E16 Byzantine accountability: 4 validators (1 "
              "adversarial), 3 bonded executors (1 cheating) --\n");
  {
    using common::ByzantineBehavior;
    constexpr uint64_t kByzSeeds = 3;

    // Validator behaviours: every provable behaviour must slash, honest
    // replicas must never diverge, withholding must never slash.
    std::printf("%14s %12s %10s %10s\n", "behavior", "divergences",
                "slashed", "conserved");
    const ByzantineBehavior kBehaviors[] = {
        ByzantineBehavior::kEquivocate, ByzantineBehavior::kInvalidStateRoot,
        ByzantineBehavior::kGasCheat, ByzantineBehavior::kWithhold};
    std::string validator_cells;
    uint64_t total_divergences = 0;
    uint64_t provable_cells = 0, provable_slashed = 0;
    uint64_t withhold_slashed = 0;
    bool supply_ok = true;
    for (ByzantineBehavior behavior : kBehaviors) {
      uint64_t divergences = 0, slashed = 0, conserved = 0;
      for (uint64_t seed = 1; seed <= kByzSeeds; ++seed) {
        const ByzantineOutcome o = RunByzantineCell(behavior, seed);
        divergences += o.honest_divergences;
        if (o.offender_slashed) ++slashed;
        if (o.supply_conserved) ++conserved;
      }
      total_divergences += divergences;
      if (common::IsProvable(behavior)) {
        provable_cells += kByzSeeds;
        provable_slashed += slashed;
      } else {
        withhold_slashed += slashed;
      }
      if (conserved != kByzSeeds) supply_ok = false;
      std::printf("%14s %12llu %9llu/%llu %8llu/%llu\n",
                  BehaviorName(behavior),
                  static_cast<unsigned long long>(divergences),
                  static_cast<unsigned long long>(slashed),
                  static_cast<unsigned long long>(kByzSeeds),
                  static_cast<unsigned long long>(conserved),
                  static_cast<unsigned long long>(kByzSeeds));
      char cell[192];
      std::snprintf(cell, sizeof(cell),
                    "%s\n      {\"behavior\": \"%s\", \"provable\": %s, "
                    "\"honest_divergences\": %llu, \"slash_rate\": %.2f, "
                    "\"supply_conserved\": %s}",
                    validator_cells.empty() ? "" : ",",
                    BehaviorName(behavior),
                    common::IsProvable(behavior) ? "true" : "false",
                    static_cast<unsigned long long>(divergences),
                    static_cast<double>(slashed) /
                        static_cast<double>(kByzSeeds),
                    conserved == kByzSeeds ? "true" : "false");
      validator_cells += cell;
    }
    const double slash_rate =
        provable_cells > 0 ? static_cast<double>(provable_slashed) /
                                 static_cast<double>(provable_cells)
                           : 0.0;

    // Determinism across executor pool sizes: the accountability machinery
    // is consensus-critical, so 1 thread and 4 threads must reach
    // bit-identical honest heads and digests.
    bool threads_identical = true;
    {
      common::ThreadPool one(1), four(4);
      const ByzantineOutcome a =
          RunByzantineCell(ByzantineBehavior::kEquivocate, 1, &one);
      const ByzantineOutcome b =
          RunByzantineCell(ByzantineBehavior::kEquivocate, 1, &four);
      threads_identical = a.honest_heads == b.honest_heads &&
                          a.honest_digests == b.honest_digests;
    }
    std::printf("1 vs 4 thread honest heads/digests: %s\n",
                threads_identical ? "bit-identical" : "DIVERGED");

    // Executor fraud: each Byzantine fault must end in a completed run, a
    // slashed bond, burned tokens, and a conserved supply.
    std::printf("%18s %10s %10s %10s %12s\n", "executor fault", "completed",
                "slashed", "conserved", "avg burned");
    struct NamedFault {
      market::ExecutorFault fault;
      const char* name;
    };
    const NamedFault kFrauds[] = {
        {market::ExecutorFault::kWrongVote, "wrong_vote"},
        {market::ExecutorFault::kTamperedUpdate, "tampered_update"},
        {market::ExecutorFault::kFalseAttestation, "false_attestation"}};
    std::string executor_cells;
    bool executor_floors_ok = true;
    for (const NamedFault& fraud : kFrauds) {
      uint64_t completed = 0, slashed = 0, conserved = 0, burned = 0;
      for (uint64_t seed = 1; seed <= kByzSeeds; ++seed) {
        const ByzantineLifecycleOutcome o =
            RunByzantineLifecycle(fraud.fault, seed);
        if (o.completed) ++completed;
        if (o.cheater_slashed) ++slashed;
        if (o.supply_conserved) ++conserved;
        burned += o.tokens_burned;
      }
      if (completed != kByzSeeds || slashed != kByzSeeds ||
          conserved != kByzSeeds) {
        executor_floors_ok = false;
      }
      std::printf("%18s %9llu/%llu %8llu/%llu %8llu/%llu %12llu\n",
                  fraud.name,
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(kByzSeeds),
                  static_cast<unsigned long long>(slashed),
                  static_cast<unsigned long long>(kByzSeeds),
                  static_cast<unsigned long long>(conserved),
                  static_cast<unsigned long long>(kByzSeeds),
                  static_cast<unsigned long long>(burned / kByzSeeds));
      char cell[224];
      std::snprintf(cell, sizeof(cell),
                    "%s\n      {\"fault\": \"%s\", \"completion_rate\": "
                    "%.2f, \"slash_rate\": %.2f, \"supply_conserved\": %s, "
                    "\"avg_tokens_burned\": %llu}",
                    executor_cells.empty() ? "" : ",", fraud.name,
                    static_cast<double>(completed) /
                        static_cast<double>(kByzSeeds),
                    static_cast<double>(slashed) /
                        static_cast<double>(kByzSeeds),
                    conserved == kByzSeeds ? "true" : "false",
                    static_cast<unsigned long long>(burned / kByzSeeds));
      executor_cells += cell;
    }

    char summary[384];
    std::snprintf(
        summary, sizeof(summary),
        "{\n    \"honest_divergences\": %llu,\n"
        "    \"provable_slash_rate\": %.2f,\n"
        "    \"withhold_slashed\": %llu,\n"
        "    \"supply_conserved\": %s,\n"
        "    \"threads_identical\": %s,\n"
        "    \"executor_floors_ok\": %s\n  }",
        static_cast<unsigned long long>(total_divergences), slash_rate,
        static_cast<unsigned long long>(withhold_slashed),
        supply_ok ? "true" : "false",
        threads_identical ? "true" : "false",
        executor_floors_ok ? "true" : "false");
    bench::MergeParallelReport("summary", summary, "BENCH_byzantine.json");
    bench::MergeParallelReport(
        "validator_accountability",
        "{\n    \"validators\": 4,\n    \"byzantine\": 1,\n"
        "    \"stake\": 1000000,\n    \"seeds_per_cell\": " +
            std::to_string(kByzSeeds) + ",\n    \"cells\": [" +
            validator_cells + "\n    ]\n  }",
        "BENCH_byzantine.json");
    bench::MergeParallelReport(
        "executor_accountability",
        "{\n    \"executors\": 3,\n    \"byzantine\": 1,\n"
        "    \"executor_stake\": 50000000,\n    \"seeds_per_cell\": " +
            std::to_string(kByzSeeds) + ",\n    \"cells\": [" +
            executor_cells + "\n    ]\n  }",
        "BENCH_byzantine.json");
    std::printf("\n%s\nwrote BENCH_byzantine.json\n",
                (total_divergences == 0 && slash_rate == 1.0 &&
                 withhold_slashed == 0 && supply_ok && threads_identical &&
                 executor_floors_ok)
                    ? "E16 PASS: honest replicas bit-identical, every "
                      "provable offender slashed, supply conserved"
                    : "E16 FAIL: accountability floor violated");
  }

  // Thread-context metadata on every report this binary touched.
  bench::WriteBenchMetadata("BENCH_parallel.json");
  bench::WriteBenchMetadata("BENCH_robustness.json");
  bench::WriteBenchMetadata("BENCH_durability.json");
  bench::WriteBenchMetadata("BENCH_byzantine.json");
  return 0;
}
