// pds2_perfbench: the repository benchmark.
//
//   pds2_perfbench --workload lifecycle|chain-transfer|des-rumor --seed N
//                  --seconds S --trace 0|1 [--toy] [--break CHECK]
//
// --trace 0 runs with metrics and tracing off (the library default) and
// prints the end-to-end metrics; --trace 1 is the traced run and prints the
// per-layer metrics. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics. Human-readable lines before
// it give the same numbers under each workload's own names, the host/build
// context, and (traced) each layer's share of the wall time.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric, printed by every traced run. A layer the
// workload never reaches reads 0: its work there is measured as none.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"chain.admit_ms", "ms"},
    {"crypto.verify_us", "us"},
    {"chain.mempool_ms", "ms"},
    {"chain.produce_ms", "ms"},
    {"chain.apply_ms", "ms"},
    {"chain.digest_ms", "ms"},
    {"crypto.batch_verify_ms", "ms"},
    {"chain.exec_residual_ms", "ms"},
    {"chain.sig_cache_hit_ratio", "ratio"},
    {"chain.lanes_per_block", "count"},
    {"chain.serial_block_share", "ratio"},
    {"chain.lane_aborts", "count"},
    {"pool.inline_share", "ratio"},
    {"market.post_ms", "ms"},
    {"market.match_ms", "ms"},
    {"market.attest_seal_ms", "ms"},
    {"market.register_executors_ms", "ms"},
    {"market.train_aggregate_ms", "ms"},
    {"market.vote_ms", "ms"},
    {"market.finalize_ms", "ms"},
    {"market.substitute_ms", "ms"},
    {"market.publish_artifact_ms", "ms"},
    {"chain.lifecycle_produce_ms", "ms"},
    {"chain.lifecycle_submit_ms", "ms"},
    {"tee.verify_quote_us", "us"},
    {"tee.seal_us", "us"},
    {"market.memo_hit_ratio", "ratio"},
    {"market.slashed_per_lifecycle", "count"},
    {"chain.txs_per_lifecycle", "count"},
    {"chain.blocks_per_lifecycle", "count"},
    {"store.dedup_ratio", "ratio"},
    {"dml.handler_ms", "ms"},
    {"dml.dispatch_ms", "ms"},
    {"dml.events", "count"},
    {"dml.messages_sent", "count"},
    {"dml.messages_delivered", "count"},
    {"dml.messages_dropped", "count"},
    {"dml.timers_dropped_offline", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"unattributed_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pds2_perfbench: %s\nusage: pds2_perfbench --workload "
               "lifecycle|chain-transfer|des-rumor --seed N --seconds S "
               "--trace 0|1 [--toy] [--break CHECK]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--toy") {
      opt.toy = true;
    } else if (a == "--break") {
      opt.break_check = value();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  return opt;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;  // keeps the line valid JSON
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Options& opt) {
  Checker check(opt.break_check);
  WorkloadResult r;
  if (opt.workload == "lifecycle") {
    r = RunLifecycle(opt, check);
  } else if (opt.workload == "chain-transfer") {
    r = RunChainTransfer(opt, check);
  } else if (opt.workload == "des-rumor") {
    r = RunDesRumor(opt, check);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.toy ? " toy" : "");
  std::printf("context: %s\n", ContextJson().c_str());
  std::printf("op: %s; work unit: %s; exact count: %s\n", r.op_name.c_str(),
              r.work_name.c_str(), r.exact_name.c_str());
  std::string checks;
  for (const std::string& c : check.seen()) {
    checks += (checks.empty() ? "" : ",") + c;
  }
  std::printf("checks: %s\n", checks.c_str());
  const double failed_ratio = static_cast<double>(check.failed()) /
                              static_cast<double>(check.attempted());
  std::printf("  %-32s %s (%llu/%llu)\n", "failed_ratio",
              Number(failed_ratio).c_str(),
              static_cast<unsigned long long>(check.failed()),
              static_cast<unsigned long long>(check.attempted()));
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double ops = static_cast<double>(r.op_ms.size());
    metrics = {
        {"setup_s", Median(r.setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"op_p50_cal", OpQuantile(r.op_cal, 0.5), "cal"},
        {"op_p90_cal", OpQuantile(r.op_cal, 0.9), "cal"},
        {"work_per_cal", Median(r.rate_cal), "1/cal"},
        {"work_per_op", r.exact_work / ops, "count"},
    };
    for (const Metric& m : r.named) {
      std::printf("  %-32s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                  m.unit.c_str());
    }
    std::printf("  %-32s %s ms (one cal)\n",
                "calibration_kernel_ms", Number(r.cal_kernel_ms).c_str());
    for (size_t i = 2; i < 5; ++i) {
      std::printf("  %-32s %s %s\n", metrics[i].name.c_str(),
                  Number(metrics[i].value).c_str(), metrics[i].unit.c_str());
    }
    std::printf("  %-32s %s s (%zu set-ups)\n", "setup_s",
                Number(Median(r.setup_s)).c_str(), r.setup_s.size());
    std::printf("  %-32s %s MB\n", "peak_rss_mb", Number(PeakRssMb()).c_str());
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = r.layers.find(name);
      metrics.push_back({name, it == r.layers.end() ? 0.0 : it->second, unit});
    }
    std::printf("reconcile (ms per %s; wall %s ms):\n", r.op_name.c_str(),
                Number(r.reconcile_wall_ms).c_str());
    for (const auto& [layer, ms] : r.reconcile) {
      std::printf("  %-32s %10.4f ms %6.2f%%\n", layer.c_str(), ms,
                  100.0 * ms / r.reconcile_wall_ms);
    }
    std::printf("  %-32s %10s    %6.2f%%\n", "unattributed", "",
                r.layers["unattributed_pct"]);
    std::printf("  %-32s %10s    %6.2f%%\n", "obs.trace_overhead_pct", "",
                r.layers["obs.trace_overhead_pct"]);
  }

  std::string json = "{\"correct\": ";
  json += check.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted());
  json += ", \"failed\": " + std::to_string(check.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
