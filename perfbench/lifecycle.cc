// `lifecycle`: the consumer-visible Fig. 2 flow. One closed-loop client runs
// back-to-back Marketplace::RunWorkload calls: 16 providers, 3 executors,
// 4 consumers taking turns, a 6-feature logistic model, substitution on.
// Fresh specs vary epochs, learning rate and max_providers; 1 in 4
// lifecycles repeats the previous spec (a memo hit) and 1 in 8 fresh ones
// arms executor e0 with a wrong vote and a bond (the slash path).
//
// A session is one freshly built marketplace running a fixed, seed-derived
// schedule of lifecycles, so every session of a run does identical work and
// gas per lifecycle is an exact count.
#include "workloads.h"

#include <memory>
#include <numeric>

#include "chain/types.h"
#include "common/rng.h"
#include "market/marketplace.h"
#include "ml/dataset.h"
#include "obs/trace.h"
#include "storage/provider_store.h"
#include "tee/attestation.h"

namespace perfbench {
namespace {

using pds2::common::Rng;
namespace market = pds2::market;

struct Sizes {
  size_t providers = 16;
  size_t records = 2400;  // across all providers
  // 42 fresh specs, three per provider count 3..16, plus 14 repeats: the
  // mix of provider counts, which sets a lifecycle's cost, is the same for
  // every seed.
  size_t lifecycles_per_session = 56;
};

struct Planned {
  market::WorkloadSpec spec;
  bool repeat = false;  // same spec as the previous lifecycle: a memo hit
  bool slash = false;   // e0 votes wrong and is bonded
};

std::string ActorName(char role, size_t index) {
  std::string name(1, role);
  name += std::to_string(index);
  return name;
}

// Fresh training tasks come from a stratified grid, so every seed runs the
// same mix of epochs, learning rates and provider counts and only their
// order and pairing depend on the seed. Grid points differ in (epochs,
// max_providers) for up to 70 fresh specs, so a fresh spec never hits the
// memo cache and only repeats are substituted.
std::vector<Planned> PlanSchedule(uint64_t seed, size_t n, size_t providers) {
  Rng rng(seed * 7919 + 17);
  std::vector<bool> repeat(n, false);
  for (size_t i = n - n / 4; i < n; ++i) repeat[i] = true;
  std::vector<bool> tail(repeat.begin() + 1, repeat.end());
  rng.Shuffle(tail);  // position 0 is always fresh
  std::copy(tail.begin(), tail.end(), repeat.begin() + 1);
  std::vector<size_t> grid(n - n / 4);
  std::iota(grid.begin(), grid.end(), 0);
  rng.Shuffle(grid);
  const uint64_t lr_offset = rng.NextU64(6);
  // At least three providers, so all three executors take part and a wrong
  // vote from e0 is a minority.
  const uint64_t span = providers - 2;
  const uint64_t mp_offset = rng.NextU64(span);

  std::vector<Planned> plan;
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    if (repeat[i]) {
      Planned p = plan.back();
      p.repeat = true;
      p.slash = false;
      p.spec.executor_stake = 0;
      plan.push_back(p);
      continue;
    }
    const uint64_t g = grid[fresh++];
    Planned p;
    market::WorkloadSpec& s = p.spec;
    s.name = ActorName('w', i);
    s.requirement.required_types = {"iot/sensor"};
    s.requirement.min_records = 10;
    s.model_kind = "logistic";
    s.features = 6;
    s.batch_size = 16;
    s.reward_pool = 100'000'000;
    s.min_providers = 2;
    s.executor_reward_permille = 200;
    s.epochs = 2 + g % 5;
    s.learning_rate = 0.05 * static_cast<double>(1 + (g / 5 + lr_offset) % 6);
    s.max_providers = 3 + (g + mp_offset) % span;
    p.slash = g % 8 == 7;
    if (p.slash) s.executor_stake = 10'000'000;
    plan.push_back(p);
  }
  return plan;
}

struct Inputs {
  std::vector<pds2::ml::Dataset> parts;
  std::vector<Planned> plan;
};

struct Session {
  std::unique_ptr<market::Marketplace> market;
  std::vector<market::ConsumerAgent*> consumers;
};

Session SetUp(const Inputs& in, uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  config.enable_substitution = true;
  Session s;
  s.market = std::make_unique<market::Marketplace>(config);
  pds2::storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  for (size_t i = 0; i < in.parts.size(); ++i) {
    market::ProviderAgent& p = s.market->AddProvider(ActorName('p', i));
    (void)p.store().AddDataset("d", in.parts[i], meta);
  }
  for (size_t i = 0; i < 3; ++i) s.market->AddExecutor(ActorName('e', i));
  for (size_t i = 0; i < 4; ++i) {
    s.consumers.push_back(&s.market->AddConsumer(ActorName('c', i)));
  }
  return s;
}

// Layer of each span the library emits on the lifecycle path; a span not
// listed is charged to its nearest listed ancestor.
const std::map<std::string, std::string>& LayerOfSpan() {
  static const std::map<std::string, std::string> kMap = {
      {"market.post", "market.post_ms"},
      {"market.match", "market.match_ms"},
      {"market.attest_seal", "market.attest_seal_ms"},
      {"market.register_executors", "market.register_executors_ms"},
      {"market.train_aggregate", "market.train_aggregate_ms"},
      {"market.vote", "market.vote_ms"},
      {"market.finalize", "market.finalize_ms"},
      {"market.substitute", "market.substitute_ms"},
      {"market.publish_artifact", "market.publish_artifact_ms"},
      {"chain.produce_block", "chain.lifecycle_produce_ms"},
      {"chain.submit_tx", "chain.lifecycle_submit_ms"},
  };
  return kMap;
}

template <typename F>
double MedianUs(size_t reps, F&& f) {
  std::vector<double> us;
  for (size_t i = 0; i < reps; ++i) {
    const double t0 = NowS();
    f();
    us.push_back((NowS() - t0) * 1e6);
  }
  return Median(us);
}

}  // namespace

WorkloadResult RunLifecycle(const Options& opt, Checker& check) {
  Sizes sz;
  if (opt.toy) {
    sz.providers = 4;
    sz.records = 400;
    sz.lifecycles_per_session = 12;
  }
  Inputs in;
  {
    Rng rng(opt.seed);
    pds2::ml::Dataset all =
        pds2::ml::MakeTwoGaussians(sz.records, 6, 4.0, rng);
    std::vector<double> weights;
    for (size_t i = 0; i < sz.providers; ++i) weights.push_back(1.0 + i % 4);
    in.parts = pds2::ml::PartitionWeighted(all, weights, rng);
  }
  in.plan = PlanSchedule(opt.seed, sz.lifecycles_per_session, sz.providers);

  WorkloadResult r;
  r.op_name = "lifecycle";
  r.work_name = "lifecycle";
  r.exact_name = "gas";
  const size_t min_sessions = opt.trace ? 4 : 3;
  const size_t min_ops = opt.toy ? 0 : SamplesForQuantile(0.9);
  uint64_t first_session_gas = 0;
  std::vector<double> traced_wall_ms, untraced_wall_ms;
  std::map<std::string, double> span_ms;
  std::map<std::string, uint64_t> counters;
  double traced_lifecycles = 0;
  std::vector<double> digest_ms;
  uint64_t memo_hits = 0, slashes = 0;
  Session last;

  Calibration cal;
  const double start = NowS();
  for (size_t session = 0;; ++session) {
    if (session >= min_sessions && r.op_ms.size() >= min_ops &&
        NowS() - start >= opt.seconds) {
      break;
    }
    last = Session{};
    const double t_setup = NowS();
    Session s = SetUp(in, opt.seed);
    r.setup_s.push_back(NowS() - t_setup);

    const bool traced = opt.trace && session % 2 == 1;
    std::unique_ptr<ObsScope> obs;
    std::map<std::string, uint64_t> before;
    if (traced) {
      obs = std::make_unique<ObsScope>(/*tracing=*/true);
      before = CounterSnapshot();
    }
    market::ExecutorAgent& e0 = *s.market->executors()[0];
    const uint64_t supply = s.market->chain().TotalSupply();
    uint64_t session_gas = 0;
    double session_wall_ms = 0, session_cal = 0;
    for (size_t i = 0; i < in.plan.size(); ++i) {
      const Planned& p = in.plan[i];
      check.BeginOp();
      e0.InjectFault(p.slash ? market::ExecutorFault::kWrongVote
                             : market::ExecutorFault::kNone);
      pds2::common::Result<market::RunReport> report =
          pds2::common::Status::Internal("not run");
      cal.Begin();
      const Timed op = cal.Time([&] {
        report = s.market->RunWorkload(*s.consumers[i % 4], p.spec);
      });
      r.op_ms.push_back(op.ms);
      r.op_cal.push_back(op.cal);
      session_wall_ms += op.ms;
      session_cal += op.cal;
      if (!report.ok()) {
        std::fprintf(stderr, "RunWorkload: %s\n",
                     report.status().ToString().c_str());
      }
      if (!check.ExpectTrue("run_ok", report.ok()) || !report.ok()) {
        check.EndOp();
        continue;
      }
      session_gas += report->gas_used;
      memo_hits += report->substituted ? 1 : 0;
      slashes += report->slashed_executors.size();
      check.ExpectEq("escrow_zero",
                     s.market->chain().GetBalance(pds2::chain::ContractAddress(
                         "workload", report->instance)),
                     0);
      check.ExpectEq("supply_unchanged", s.market->chain().TotalSupply(),
                     supply);
      auto fetched = s.market->FetchResult(*report);
      check.ExpectTrue("fetch_verifies",
                       fetched.ok() && *fetched == report->model_params);
      check.ExpectTrue("repeat_substituted", report->substituted == p.repeat);
      check.ExpectEq("slash_lands", report->slashed_executors.count("e0"),
                     p.slash ? 1 : 0);
      if (traced) {
        // The whole-state hash every produced block pays, at this chain's
        // state size.
        const double t = NowS();
        (void)s.market->chain().StateDigest();
        digest_ms.push_back((NowS() - t) * 1e3);
      }
      check.EndOp();
    }
    e0.InjectFault(market::ExecutorFault::kNone);
    r.rate.push_back(static_cast<double>(in.plan.size()) * 1e3 /
                     session_wall_ms);
    r.rate_cal.push_back(static_cast<double>(in.plan.size()) / session_cal);
    r.exact_work += static_cast<double>(session_gas);
    // Same seed, same schedule: every session must spend the same gas.
    if (session == 0) {
      first_session_gas = session_gas;
    } else {
      check.ExpectEq("gas_repeats", session_gas, first_session_gas);
    }
    if (traced) {
      for (const auto& [layer, ms] : SpanLayerMs(LayerOfSpan())) {
        span_ms[layer] += ms;
      }
      for (const auto& [name, v] : CounterDelta(before, CounterSnapshot())) {
        counters[name] += v;
      }
      traced_lifecycles += static_cast<double>(in.plan.size());
      traced_wall_ms.push_back(session_wall_ms);
    } else {
      untraced_wall_ms.push_back(session_wall_ms);
    }
    last = std::move(s);
  }

  r.cal_kernel_ms = cal.MedianMs();
  if (!opt.trace) PadSetups(&r.setup_s, [&] { return SetUp(in, opt.seed); });

  const double n = static_cast<double>(r.op_ms.size());
  r.named = {
      {"lifecycle_p50_ms", OpQuantile(r.op_ms, 0.5), "ms"},
      {"lifecycle_p90_ms", OpQuantile(r.op_ms, 0.9), "ms"},
      {"lifecycles_per_s", Median(r.rate), "1/s"},
      {"gas_per_lifecycle", r.exact_work / n, "gas"},
      {"memo_hits", static_cast<double>(memo_hits), "count"},
      {"slashes", static_cast<double>(slashes), "count"},
      {"lifecycles", n, "count"},
  };
  if (!opt.trace) return r;

  // Per-layer: span self time per lifecycle, counters, and two tee calls
  // timed from outside on one provider shard.
  for (const auto& [span, layer] : LayerOfSpan()) r.layers[layer] = 0;
  double attributed = 0;
  for (const auto& [layer, ms] : span_ms) {
    if (layer.empty()) continue;
    r.layers[layer] = ms / traced_lifecycles;
    attributed += ms;
  }
  AddCounterLayers(counters, &r.layers);
  r.layers["chain.digest_ms"] = Mean(digest_ms);
  const double wall_ms = Sum(traced_wall_ms);
  r.reconcile_wall_ms = wall_ms / traced_lifecycles;
  for (const auto& [span, layer] : LayerOfSpan()) {
    r.reconcile.push_back({layer, r.layers[layer]});
  }
  r.layers["unattributed_pct"] = 100.0 * (wall_ms - attributed) / wall_ms;
  r.layers["obs.trace_overhead_pct"] =
      100.0 * (Median(traced_wall_ms) / Median(untraced_wall_ms) - 1.0);

  market::Marketplace& m = *last.market;
  market::ExecutorAgent& ex = *m.executors()[1];
  const pds2::tee::AttestationQuote quote = ex.QuoteFor(1);
  bool quotes_ok = true;
  r.layers["tee.verify_quote_us"] = MedianUs(200, [&] {
    quotes_ok &= pds2::tee::VerifyQuote(quote, m.attestation().RootPublicKey(),
                                        ex.enclave().Measurement())
                     .ok();
  });
  check.ExpectTrue("quote_verifies", quotes_ok);
  const pds2::common::Bytes shard =
      pds2::storage::SerializeDataset(in.parts[0]);
  size_t sealed_bytes = 0;
  r.layers["tee.seal_us"] = MedianUs(200, [&] {
    sealed_bytes = ex.enclave().Seal(shard).size();
  });
  check.ExpectTrue("seal_nonempty", sealed_bytes > shard.size());
  return r;
}

}  // namespace perfbench
