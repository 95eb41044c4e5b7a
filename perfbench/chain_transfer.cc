// `chain-transfer`: a validator under steady payment load. 10^5 funded
// accounts; every block holds 200 plain transfers from distinct senders to
// uniformly drawn existing accounts, so the state size stays constant. Per
// block: SubmitTransaction x200 -> ProduceBlock -> a second Blockchain
// replica runs ApplyExternalBlock.
//
// Transactions are signed once per run, before anything is timed. A session
// builds a fresh producer/replica pair from genesis and replays the same
// signed blocks, so every session does identical work.
#include "workloads.h"

#include <memory>

#include "chain/chain.h"
#include "chain/mempool.h"
#include "chain/state.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/schnorr.h"

namespace perfbench {
namespace {

using pds2::common::Bytes;
using pds2::common::Rng;
namespace chain = pds2::chain;

struct Sizes {
  size_t accounts = 100'000;
  size_t txs_per_block = 200;
  size_t blocks_per_session = 20;
};

constexpr uint64_t kGenesisBalance = 1'000'000'000'000ULL;
constexpr uint64_t kGasLimit = 50'000;

struct Inputs {
  pds2::crypto::SigningKey validator;
  std::vector<chain::Address> accounts;  // senders first
  std::vector<std::vector<chain::Transaction>> blocks;
};

Inputs MakeInputs(const Sizes& sz, uint64_t seed) {
  Inputs in{pds2::crypto::SigningKey::FromSeed(
                pds2::common::ToBytes("perfbench.validator")),
            {},
            {}};
  std::vector<pds2::crypto::SigningKey> senders;
  for (size_t i = 0; i < sz.txs_per_block; ++i) {
    const std::string tag =
        "perfbench.sender." + std::to_string(seed) + "." + std::to_string(i);
    senders.push_back(
        pds2::crypto::SigningKey::FromSeed(pds2::common::ToBytes(tag)));
    in.accounts.push_back(
        chain::AddressFromPublicKey(senders.back().PublicKey()));
  }
  for (size_t i = sz.txs_per_block; i < sz.accounts; ++i) {
    const std::string tag =
        "perfbench.account." + std::to_string(seed) + "." + std::to_string(i);
    in.accounts.push_back(
        chain::AddressFromPublicKey(pds2::common::ToBytes(tag)));
  }
  // Draw recipients and amounts sequentially, then sign in parallel: the
  // signed bytes depend only on the seed.
  Rng rng(seed * 104729 + 3);
  struct Draw {
    size_t to;
    uint64_t value;
  };
  std::vector<Draw> draws;
  const size_t total = sz.blocks_per_session * sz.txs_per_block;
  for (size_t k = 0; k < total; ++k) {
    size_t to = 0;
    do {
      to = static_cast<size_t>(rng.NextU64(sz.accounts));
    } while (to == k % sz.txs_per_block);
    draws.push_back({to, 1 + rng.NextU64(1000)});
  }
  std::vector<chain::Transaction> signed_txs(total);
  pds2::common::ThreadPool::Global().ParallelFor(0, total, [&](size_t k) {
    const size_t sender = k % sz.txs_per_block;
    signed_txs[k] = chain::Transaction::Make(
        senders[sender], /*nonce=*/k / sz.txs_per_block,
        in.accounts[draws[k].to], draws[k].value, kGasLimit,
        chain::CallPayload{});
  });
  for (size_t b = 0; b < sz.blocks_per_session; ++b) {
    in.blocks.emplace_back(signed_txs.begin() + b * sz.txs_per_block,
                           signed_txs.begin() + (b + 1) * sz.txs_per_block);
  }
  return in;
}

struct Session {
  std::unique_ptr<chain::Blockchain> producer;
  std::unique_ptr<chain::Blockchain> replica;
};

std::unique_ptr<chain::Blockchain> Genesis(const Inputs& in) {
  auto c = std::make_unique<chain::Blockchain>(
      std::vector<Bytes>{in.validator.PublicKey()},
      chain::ContractRegistry::CreateDefault());
  for (const chain::Address& a : in.accounts) {
    (void)c->CreditGenesis(a, kGenesisBalance);
  }
  (void)c->StateDigest();  // the genesis state commitment
  return c;
}

double MsSince(double t0) { return (NowS() - t0) * 1e3; }

}  // namespace

WorkloadResult RunChainTransfer(const Options& opt, Checker& check) {
  Sizes sz;
  if (opt.toy) {
    sz.accounts = 2'000;
    sz.txs_per_block = 50;
    sz.blocks_per_session = 6;
  }
  const double t_inputs = NowS();
  const Inputs in = MakeInputs(sz, opt.seed);
  std::fprintf(stderr, "chain-transfer: signed %zu txs in %.2f s\n",
               sz.blocks_per_session * sz.txs_per_block, NowS() - t_inputs);

  WorkloadResult r;
  r.op_name = "block (produce + replica apply)";
  r.work_name = "committed tx";
  r.exact_name = "gas";
  const size_t min_sessions = opt.trace ? 4 : 3;
  const size_t min_ops = opt.toy ? 0 : SamplesForQuantile(0.9);
  Bytes first_digest;
  std::vector<double> traced_wall_ms, untraced_wall_ms;
  std::map<std::string, std::vector<double>> per_block;  // traced layers
  std::vector<double> verify_us;
  std::map<std::string, uint64_t> counters;

  Calibration cal;
  const double start = NowS();
  for (size_t session = 0;; ++session) {
    if (session >= min_sessions && r.op_ms.size() >= min_ops &&
        NowS() - start >= opt.seconds) {
      break;
    }
    const double t_setup = NowS();
    Session s{Genesis(in), Genesis(in)};
    r.setup_s.push_back(NowS() - t_setup);
    const uint64_t supply = s.producer->TotalSupply();

    const bool traced = opt.trace && session % 2 == 1;
    std::unique_ptr<ObsScope> obs;
    std::map<std::string, uint64_t> before;
    chain::Mempool mempool;
    chain::WorldState sender_state;
    if (traced) {
      obs = std::make_unique<ObsScope>(/*tracing=*/false);
      before = CounterSnapshot();
      for (size_t i = 0; i < sz.txs_per_block; ++i) {
        (void)sender_state.Credit(in.accounts[i], kGenesisBalance);
      }
    }
    const uint64_t gas_before = s.producer->TotalGasUsed();
    double session_wall_ms = 0;
    for (size_t b = 0; b < in.blocks.size(); ++b) {
      const std::vector<chain::Transaction>& txs = in.blocks[b];
      check.BeginOp();
      bool admitted = true;
      pds2::common::Result<chain::Block> block =
          pds2::common::Status::Internal("not produced");
      bool applied = false;
      cal.Begin();
      const Timed admit = cal.Time([&] {
        for (const chain::Transaction& tx : txs) {
          admitted &= s.producer->SubmitTransaction(tx).ok();
        }
      });
      const Timed produce = cal.Time([&] {
        block = s.producer->ProduceBlock(
            in.validator,
            static_cast<pds2::common::SimTime>(b + 1) *
                pds2::common::kMicrosPerSecond);
      });
      const Timed apply = cal.Time([&] {
        applied = block.ok() && s.replica->ApplyExternalBlock(*block).ok();
      });
      r.op_ms.push_back(produce.ms + apply.ms);
      r.op_cal.push_back(produce.cal + apply.cal);
      session_wall_ms += admit.ms + produce.ms + apply.ms;
      check.ExpectTrue("submit_accepted", admitted);
      check.ExpectEq("block_full",
                     block.ok() ? block->transactions.size() : 0,
                     txs.size());
      check.ExpectTrue("replica_applies", applied);
      const double committed =
          block.ok() ? static_cast<double>(block->transactions.size()) : 0.0;
      r.rate.push_back(committed * 1e3 / (admit.ms + produce.ms + apply.ms));
      r.rate_cal.push_back(committed / (admit.cal + produce.cal + apply.cal));
      if (traced && block.ok()) {
        auto& l = per_block;
        l["chain.admit_ms"].push_back(admit.ms);
        l["chain.produce_ms"].push_back(produce.ms);
        l["chain.apply_ms"].push_back(apply.ms);
        l["wall_ms"].push_back(admit.ms + produce.ms + apply.ms);
        double t = NowS();
        (void)s.replica->StateDigest();
        const double digest_ms = MsSince(t);
        std::vector<pds2::crypto::BatchVerifyEntry> entries;
        for (const chain::Transaction& tx : block->transactions) {
          entries.push_back({tx.sender_public_key(),
                             pds2::crypto::DomainSeparatedMessage(
                                 chain::Transaction::Domain(),
                                 tx.SigningBytes()),
                             tx.signature()});
        }
        t = NowS();
        const bool batch_ok = pds2::crypto::VerifySignatureBatch(entries);
        const double batch_ms = MsSince(t);
        check.ExpectTrue("batch_verifies", batch_ok);
        l["chain.digest_ms"].push_back(digest_ms);
        l["crypto.batch_verify_ms"].push_back(batch_ms);
        l["chain.exec_residual_ms"].push_back(apply.ms - batch_ms -
                                              digest_ms);
        for (size_t k = 0; k < txs.size(); k += 20) {
          t = NowS();
          const bool ok = txs[k].VerifySignature().ok();
          verify_us.push_back((NowS() - t) * 1e6);
          check.ExpectTrue("signature_verifies", ok);
        }
        // The same transactions through a standalone mempool.
        t = NowS();
        for (const chain::Transaction& tx : txs) (void)mempool.Add(tx);
        auto selection =
            mempool.SelectForBlock(sender_state, 100'000'000, /*floor=*/1);
        mempool.RemoveExecuted(selection.selected);
        l["chain.mempool_ms"].push_back(MsSince(t));
        check.ExpectEq("mempool_selects_all", selection.selected.size(),
                       txs.size());
        for (size_t i = 0; i < sz.txs_per_block; ++i) {
          sender_state.BumpNonce(in.accounts[i]);
        }
      }
      check.EndOp();
    }
    r.exact_work +=
        static_cast<double>(s.producer->TotalGasUsed() - gas_before);
    const Bytes digest = s.producer->StateDigest();
    check.ExpectEq("digests_equal", s.replica->StateDigest(), digest);
    check.ExpectEq("supply_unchanged", s.producer->TotalSupply(), supply);
    check.ExpectEq("replica_supply_unchanged", s.replica->TotalSupply(),
                   supply);
    if (session == 0) {
      first_digest = digest;
    } else {
      check.ExpectEq("state_repeats", digest, first_digest);
    }
    if (traced) {
      for (const auto& [name, v] : CounterDelta(before, CounterSnapshot())) {
        counters[name] += v;
      }
      traced_wall_ms.push_back(session_wall_ms);
    } else {
      untraced_wall_ms.push_back(session_wall_ms);
    }
  }
  r.cal_kernel_ms = cal.MedianMs();
  if (!opt.trace) {
    PadSetups(&r.setup_s, [&] { return Session{Genesis(in), Genesis(in)}; });
  }

  r.named = {
      {"block_p50_ms", OpQuantile(r.op_ms, 0.5), "ms"},
      {"block_p90_ms", OpQuantile(r.op_ms, 0.9), "ms"},
      {"tx_per_s", Median(r.rate), "1/s"},
      {"gas_per_block", r.exact_work / static_cast<double>(r.op_ms.size()),
       "gas"},
      {"blocks", static_cast<double>(r.op_ms.size()), "count"},
  };
  if (!opt.trace) return r;

  for (const auto& [name, v] : per_block) {
    if (name != "wall_ms") r.layers[name] = Mean(v);
  }
  r.layers["crypto.verify_us"] = Median(verify_us);
  AddCounterLayers(counters, &r.layers);
  r.reconcile_wall_ms = Mean(per_block["wall_ms"]);
  r.reconcile = {
      {"chain.admit_ms", r.layers["chain.admit_ms"]},
      {"chain.produce_ms", r.layers["chain.produce_ms"]},
      {"chain.digest_ms", r.layers["chain.digest_ms"]},
      {"crypto.batch_verify_ms", r.layers["crypto.batch_verify_ms"]},
      {"chain.exec_residual_ms", r.layers["chain.exec_residual_ms"]},
  };
  double attributed = 0;
  for (const auto& [name, ms] : r.reconcile) attributed += ms;
  r.layers["unattributed_pct"] =
      100.0 * (r.reconcile_wall_ms - attributed) / r.reconcile_wall_ms;
  r.layers["obs.trace_overhead_pct"] =
      100.0 * (Median(traced_wall_ms) / Median(untraced_wall_ms) - 1.0);
  return r;
}

}  // namespace perfbench
