#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

// --- Checker -----------------------------------------------------------------

void Checker::EndOp() {
  ++attempted_;
  if (op_failed_) ++failed_;
  last_failed_ = op_failed_;
  open_ = false;
  op_failed_ = false;
}

void Checker::Record(const char* check, bool ok, const std::string& detail) {
  seen_.insert(check);
  if (ok) return;
  if (reported_++ < 5) {
    std::fprintf(stderr, "check failed: %s%s%s\n", check,
                 detail.empty() ? "" : ": ", detail.c_str());
  }
  if (open_) {
    op_failed_ = true;
  } else if (!last_failed_) {
    // End-of-session check: charge the session's last operation.
    if (attempted_ == 0) ++attempted_;
    ++failed_;
    last_failed_ = true;
  }
}

bool Checker::ExpectTrue(const char* check, bool actual) {
  const bool expected = !Broken(check);
  Record(check, actual == expected, "");
  return actual == expected;
}

bool Checker::ExpectEq(const char* check, uint64_t actual, uint64_t expected) {
  if (Broken(check)) ++expected;
  const bool ok = actual == expected;
  Record(check, ok,
         ok ? "" : std::to_string(actual) + " != " + std::to_string(expected));
  return ok;
}

bool Checker::ExpectEq(const char* check, const pds2::common::Bytes& actual,
                       pds2::common::Bytes expected) {
  if (Broken(check)) {
    if (expected.empty()) expected.push_back(0);
    expected[0] ^= 1;
  }
  const bool ok = actual == expected;
  Record(check, ok, ok ? "" : "byte strings differ");
  return ok;
}

// --- Statistics --------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

size_t SamplesForQuantile(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

double OpQuantile(const std::vector<double>& op_ms, double q) {
  const size_t window = SamplesForQuantile(0.9);
  const size_t windows = std::max<size_t>(1, op_ms.size() / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = op_ms.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? op_ms.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

// --- Calibration -------------------------------------------------------------

namespace {

constexpr size_t kLiveBlocks = 4096;  // heap blocks the kernel keeps alive
constexpr uint64_t kMapKeys = 1 << 14;
constexpr size_t kKernelSteps = 10'000;  // 2-3.5 ms on a shared 4-vCPU Xeon

}  // namespace

Calibration::Calibration() : live_(kLiveBlocks, nullptr) { Begin(); }

Calibration::~Calibration() {
  for (void* p : live_) std::free(p);
}

double Calibration::KernelMs() {
  const double t0 = NowS();
  uint64_t x = x_;
  for (size_t k = 0; k < kKernelSteps; ++k) {
    for (int i = 0; i < 2; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Free a block and allocate one of another size in its place.
      void*& block = live_[x % kLiveBlocks];
      std::free(block);
      block = std::malloc(16 + (x >> 12) % 256);
      static_cast<unsigned char*>(block)[0] = static_cast<unsigned char>(x);
    }
    // Replace one entry of a hash map of up to 2^14 keys.
    map_.erase((x >> 20) % kMapKeys);
    map_[(x >> 34) % kMapKeys] += x;
  }
  x_ = x;
  const double ms = (NowS() - t0) * 1e3;
  kernel_ms_.push_back(ms);
  return ms;
}

double Calibration::MedianMs() const { return Median(kernel_ms_); }

// --- Registry deltas ---------------------------------------------------------

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       pds2::obs::Registry::Global().TakeSnapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddCounterLayers(const std::map<std::string, uint64_t>& d,
                      std::map<std::string, double>* layers) {
  auto c = [&d](const char* name) {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto& l = *layers;
  const double blocks = c("chain.blocks_produced") + c("chain.blocks_applied");
  const double exec_blocks =
      c("chain.parallel.blocks_parallel") + c("chain.parallel.blocks_serial");
  l["chain.sig_cache_hit_ratio"] =
      Ratio(c("chain.sig_cache_hits"),
            c("chain.sig_cache_hits") + c("chain.sig_verifications"));
  l["chain.lanes_per_block"] = Ratio(c("chain.parallel.lanes"), blocks);
  l["chain.serial_block_share"] =
      Ratio(c("chain.parallel.blocks_serial"), exec_blocks);
  l["chain.lane_aborts"] = Ratio(c("chain.parallel.aborts"), blocks);
  l["pool.inline_share"] =
      Ratio(c("pool.tasks_inline"),
            c("pool.tasks_inline") + c("pool.tasks_executed"));
  const double lifecycles = c("market.workloads_started");
  l["market.memo_hit_ratio"] =
      Ratio(c("market.workloads_substituted"), lifecycles);
  l["market.slashed_per_lifecycle"] =
      Ratio(c("market.executors_slashed"), lifecycles);
  l["chain.txs_per_lifecycle"] = Ratio(c("chain.txs_executed"), lifecycles);
  l["chain.blocks_per_lifecycle"] =
      Ratio(c("chain.blocks_produced"), lifecycles);
  l["store.dedup_ratio"] =
      Ratio(c("store.chunks_deduped"),
            c("store.chunks_deduped") + c("store.chunks_stored"));
}

// --- Process / obs -----------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ObsScope::ObsScope(bool tracing) {
  pds2::obs::Tracer::Global().Reset();
  pds2::obs::SetMetricsEnabled(true);
  pds2::obs::SetTracingEnabled(tracing);
}

ObsScope::~ObsScope() {
  pds2::obs::SetTracingEnabled(false);
  pds2::obs::SetMetricsEnabled(false);
}

std::map<std::string, double> SpanLayerMs(
    const std::map<std::string, std::string>& layer_of) {
  const std::vector<pds2::obs::SpanRecord> spans =
      pds2::obs::Tracer::Global().Snapshot();
  const uint32_t main_thread =
      static_cast<uint32_t>(pds2::obs::internal_metrics::ThisThreadIndex());
  // Span ids are 1-based indexes into the record vector.
  auto get = [&spans](uint64_t id) -> const pds2::obs::SpanRecord* {
    return id >= 1 && id <= spans.size() ? &spans[id - 1] : nullptr;
  };
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const auto& s : spans) {
    if (s.thread != main_thread || s.wall_end_ns == 0) continue;
    const auto* p = get(s.parent);
    if (p != nullptr && p->thread == main_thread) {
      children[s.parent].push_back({s.wall_start_ns, s.wall_end_ns});
    }
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    if (s.thread != main_thread || s.wall_end_ns == 0) continue;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_lo = 0, cur_hi = 0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.wall_start_ns);
        hi = std::min(hi, s.wall_end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi - cur_lo;
    }
    const uint64_t dur = s.wall_end_ns - s.wall_start_ns;
    const double self_ms =
        static_cast<double>(dur - std::min(dur, covered)) / 1e6;
    std::string layer;
    for (const auto* a = &s; a != nullptr; a = get(a->parent)) {
      auto l = layer_of.find(a->name);
      if (l != layer_of.end()) {
        layer = l->second;
        break;
      }
      if (a->thread != main_thread) break;
    }
    out[layer] += self_ms;
  }
  return out;
}

std::string ContextJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : 0;
  const char* env = std::getenv("PDS2_THREADS");
  std::string out = "{\"cpu_model\": \"";
  for (char ch : cpu) {
    if (ch != '"' && ch != '\\') out += ch;
  }
  out += "\", \"nproc\": " + std::to_string(nproc);
  out += ", \"pool_threads\": " +
         std::to_string(pds2::common::ThreadPool::Global().NumThreads());
  out += ", \"PDS2_THREADS\": \"" + std::string(env ? env : "") + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"}";
  return out;
}

}  // namespace perfbench
