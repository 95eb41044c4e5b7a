// `des-rumor`: a dml::RumorNode push epidemic on NetSim in its default
// sequential mode: 10^4 nodes, 1% message drop, FaultPlan::Random churn
// with a 10% crash fraction, run to a fixed 5 s sim horizon past
// convergence. Nearly all the time is NetSim dispatch: the timer wheel,
// flat per-node arrays and the fault hook. One timed operation is one whole
// epidemic from a freshly built simulator, always with the run's seed, so
// every epidemic of a run does identical work.
//
// 10^4 rather than 10^5 nodes: a 10^5-node epidemic takes seconds, so a
// run could not time the 100 epidemics a p90 needs within its time limit.
#include "workloads.h"

#include <chrono>
#include <memory>

#include "common/fault.h"
#include "dml/fault_injector.h"
#include "dml/netsim.h"
#include "dml/rumor.h"

namespace perfbench {
namespace {

namespace dml = pds2::dml;
using pds2::common::kMicrosPerSecond;
using pds2::common::SimTime;

struct Sizes {
  size_t nodes = 10'000;
  SimTime horizon = 5 * kMicrosPerSecond;
};

constexpr size_t kSlices = 10;  // timed pieces of one epidemic

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Forwards every callback to a RumorNode and accumulates the time spent
/// inside it: the traced run's handler layer. NetSim dispatch is the rest.
class TimedRumorNode : public dml::Node {
 public:
  TimedRumorNode(dml::RumorConfig config, uint64_t* handler_ns)
      : inner_(config), handler_ns_(handler_ns) {}
  dml::RumorNode& inner() { return inner_; }

  void OnStart(dml::NodeContext& ctx) override {
    const uint64_t t = NowNs();
    inner_.OnStart(ctx);
    *handler_ns_ += NowNs() - t;
  }
  void OnRestart(dml::NodeContext& ctx) override {
    const uint64_t t = NowNs();
    inner_.OnRestart(ctx);
    *handler_ns_ += NowNs() - t;
  }
  void OnMessage(dml::NodeContext& ctx, size_t from,
                 const pds2::common::Bytes& payload) override {
    const uint64_t t = NowNs();
    inner_.OnMessage(ctx, from, payload);
    *handler_ns_ += NowNs() - t;
  }
  void OnTimer(dml::NodeContext& ctx, uint64_t timer_id) override {
    const uint64_t t = NowNs();
    inner_.OnTimer(ctx, timer_id);
    *handler_ns_ += NowNs() - t;
  }

 private:
  dml::RumorNode inner_;
  uint64_t* handler_ns_;
};

struct Session {
  std::unique_ptr<dml::NetSim> sim;
  std::vector<const dml::RumorNode*> nodes;
};

Session SetUp(const Sizes& sz, uint64_t seed,
              const pds2::common::FaultPlan& plan, uint64_t* handler_ns) {
  dml::NetConfig net;
  net.drop_rate = 0.01;
  net.bandwidth_bytes_per_sec = 0;  // one-byte rumors; latency dominates
  Session s;
  s.sim = std::make_unique<dml::NetSim>(net, seed);
  s.sim->Reserve(sz.nodes + 1);
  s.nodes.reserve(sz.nodes);
  const dml::RumorConfig rumor;
  for (size_t i = 0; i < sz.nodes; ++i) {
    if (handler_ns != nullptr) {
      auto node = std::make_unique<TimedRumorNode>(rumor, handler_ns);
      if (i == 0) node->inner().Seed();
      s.nodes.push_back(&node->inner());
      s.sim->AddNode(std::move(node));
    } else {
      auto node = std::make_unique<dml::RumorNode>(rumor);
      if (i == 0) node->Seed();
      s.nodes.push_back(node.get());
      s.sim->AddNode(std::move(node));
    }
  }
  dml::FaultInjector::Install(*s.sim, plan);
  return s;
}

}  // namespace

WorkloadResult RunDesRumor(const Options& opt, Checker& check) {
  Sizes sz;
  if (opt.toy) sz.nodes = 2'000;
  pds2::common::FaultProfile profile;
  profile.crash_fraction = 0.1;
  profile.min_downtime = 1 * kMicrosPerSecond;
  profile.max_downtime = 3 * kMicrosPerSecond;
  profile.num_partitions = 0;
  const pds2::common::FaultPlan plan =
      pds2::common::FaultPlan::Random(opt.seed, sz.nodes, sz.horizon, profile);

  WorkloadResult r;
  r.op_name = "epidemic";
  r.work_name = "DES event";
  r.exact_name = "DES events";
  const size_t min_ops = opt.toy ? 4 : SamplesForQuantile(0.9);
  uint64_t first_events = 0;
  std::vector<double> traced_wall_ms, untraced_wall_ms;
  std::map<std::string, std::vector<double>> per_epidemic;
  std::map<std::string, uint64_t> counters;
  uint64_t events_total = 0;
  double handler_ms = 0;

  Calibration cal;
  const double start = NowS();
  for (size_t session = 0;; ++session) {
    if (r.op_ms.size() >= min_ops && NowS() - start >= opt.seconds) break;
    const bool traced = opt.trace && session % 2 == 1;
    uint64_t handler_ns = 0;
    const double t_setup = NowS();
    Session s = SetUp(sz, opt.seed, plan, traced ? &handler_ns : nullptr);
    r.setup_s.push_back(NowS() - t_setup);

    std::unique_ptr<ObsScope> obs;
    std::map<std::string, uint64_t> before;
    if (traced) {
      obs = std::make_unique<ObsScope>(/*tracing=*/false);
      before = CounterSnapshot();
    }
    check.BeginOp();
    // The epidemic runs in slices of sim time, each timed against the
    // calibration kernel, so a change of host speed within one epidemic is
    // tracked too.
    Timed op;
    cal.Begin();
    for (size_t k = 1; k <= kSlices; ++k) {
      const Timed slice = cal.Time([&] {
        if (k == 1) s.sim->Start();
        s.sim->RunUntil(sz.horizon * static_cast<SimTime>(k) /
                        static_cast<SimTime>(kSlices));
      });
      op.ms += slice.ms;
      op.cal += slice.cal;
    }
    const double ms = op.ms;
    r.op_ms.push_back(ms);
    r.op_cal.push_back(op.cal);
    const dml::NetStats stats = s.sim->stats();
    const double events = static_cast<double>(stats.events_processed);
    r.rate.push_back(events * 1e3 / ms);
    r.rate_cal.push_back(events / op.cal);
    size_t infected = 0;
    for (const dml::RumorNode* node : s.nodes) infected += node->infected();
    check.ExpectTrue("infected_999", infected * 1000 >= sz.nodes * 999);
    // Same seed, same plan: every epidemic must replay the same events.
    if (session == 0) first_events = stats.events_processed;
    check.ExpectEq("events_repeat", stats.events_processed, first_events);
    check.EndOp();
    events_total += stats.events_processed;
    if (traced) {
      for (const auto& [name, v] : CounterDelta(before, CounterSnapshot())) {
        counters[name] += v;
      }
      auto& l = per_epidemic;
      l["dml.events"].push_back(static_cast<double>(stats.events_processed));
      l["dml.messages_sent"].push_back(
          static_cast<double>(stats.messages_sent));
      l["dml.messages_delivered"].push_back(
          static_cast<double>(stats.messages_delivered));
      l["dml.messages_dropped"].push_back(
          static_cast<double>(stats.messages_dropped));
      l["dml.timers_dropped_offline"].push_back(
          static_cast<double>(stats.timers_dropped_offline));
      handler_ms += static_cast<double>(handler_ns) / 1e6;
      traced_wall_ms.push_back(ms);
    } else {
      untraced_wall_ms.push_back(ms);
    }
  }
  r.exact_work = static_cast<double>(events_total);
  r.cal_kernel_ms = cal.MedianMs();
  if (!opt.trace) {
    PadSetups(&r.setup_s,
              [&] { return SetUp(sz, opt.seed, plan, nullptr); });
  }

  r.named = {
      {"events_per_s", Median(r.rate), "1/s"},
      {"events_per_epidemic", static_cast<double>(first_events), "count"},
      {"epidemic_p50_ms", OpQuantile(r.op_ms, 0.5), "ms"},
      {"epidemic_p90_ms", OpQuantile(r.op_ms, 0.9), "ms"},
      {"epidemics", static_cast<double>(r.op_ms.size()), "count"},
  };
  if (!opt.trace) return r;

  for (const auto& [name, v] : per_epidemic) r.layers[name] = Mean(v);
  AddCounterLayers(counters, &r.layers);
  const double traced_n = static_cast<double>(traced_wall_ms.size());
  const double traced_ms = Sum(traced_wall_ms);
  r.layers["dml.handler_ms"] = handler_ms / traced_n;
  r.layers["dml.dispatch_ms"] = (traced_ms - handler_ms) / traced_n;
  r.reconcile_wall_ms = traced_ms / traced_n;
  r.reconcile = {{"dml.handler_ms", r.layers["dml.handler_ms"]},
                 {"dml.dispatch_ms", r.layers["dml.dispatch_ms"]}};
  // Dispatch is Start + RunUntil minus the time inside node callbacks, so
  // the two layers cover the epidemic's wall time by construction.
  r.layers["unattributed_pct"] = 0.0;
  r.layers["obs.trace_overhead_pct"] =
      100.0 * (Median(traced_wall_ms) / Median(untraced_wall_ms) - 1.0);
  return r;
}

}  // namespace perfbench
