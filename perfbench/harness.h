// Shared pieces of the benchmark binary: options, correctness accounting,
// statistics, registry deltas and result printing. Each workload
// (lifecycle.cc, chain_transfer.cc, des_rumor.cc) fills a WorkloadResult;
// main.cc turns it into the end-to-end or per-layer metric set.
#ifndef PDS2_PERFBENCH_HARNESS_H_
#define PDS2_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end run (metrics and tracing off, the library default).
  /// true: traced run that yields the per-layer metrics.
  bool trace = false;
  /// Tiny sizes so the self-test finishes in seconds.
  bool toy = false;
  /// Name of one correctness check whose expected value is made wrong on
  /// purpose, to show that the check can fail.
  std::string break_check;
};

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts attempted and failed operations. An operation fails when any
/// check made while it is open fails; a check made after the last operation
/// of a session (end-of-session state checks) fails that last operation.
class Checker {
 public:
  explicit Checker(std::string broken) : broken_(std::move(broken)) {}

  void BeginOp() { open_ = true; op_failed_ = false; }
  void EndOp();

  bool ExpectTrue(const char* check, bool actual);
  bool ExpectEq(const char* check, uint64_t actual, uint64_t expected);
  bool ExpectEq(const char* check, const pds2::common::Bytes& actual,
                pds2::common::Bytes expected);
  /// Every check name exercised so far, passing or not.
  const std::set<std::string>& seen() const { return seen_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool Broken(const char* check) const { return broken_ == check; }
  void Record(const char* check, bool ok, const std::string& detail);

  std::string broken_;
  bool open_ = false;
  bool op_failed_ = false;
  bool last_failed_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reported_ = 0;
  std::set<std::string> seen_;
};

/// Linear-interpolation quantile of `v` (q in [0, 1]); v must be non-empty.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v);
double Mean(const std::vector<double>& v);
/// Samples needed before quantile q has at least ten samples beyond it.
size_t SamplesForQuantile(double q);
/// Quantile q of per-operation latencies, reported as the median over
/// consecutive windows of SamplesForQuantile(0.9) operations (the last
/// window takes the remainder) of each window's own quantile. A burst of
/// host interference then moves one window, not the result.
double OpQuantile(const std::vector<double>& op_ms, double q);

/// Adds set-ups that run no operations until `setup_s` holds `want`
/// samples or `budget_s` seconds went into the extra ones, so the reported
/// median set-up time rests on several samples even when a run has few
/// sessions.
template <typename SetUp>
void PadSetups(std::vector<double>* setup_s, SetUp&& set_up, size_t want = 9,
               double budget_s = 1.0) {
  const double start = NowS();
  while (setup_s->size() < want && NowS() - start < budget_s) {
    const double t0 = NowS();
    auto discarded = set_up();
    setup_s->push_back(NowS() - t0);
  }
}

/// One timed piece of work: its wall time, and the same time in
/// calibration units (see Calibration).
struct Timed {
  double ms = 0;
  double cal = 0;
};

/// Times work against a fixed reference kernel run on the same core right
/// before and right after it. The host this benchmark runs on is shared:
/// other tenants' load on the same physical cores slows cache-bound code by
/// up to 2x for seconds to minutes at a time, so wall time alone differs
/// from run to run by more than any change worth detecting. The reference
/// kernel slows with it, so work / kernel time, the calibration unit
/// `cal`, moves less, while a change to the program still moves it in
/// full. The kernel is heap allocation churn and hash-map updates: of the
/// kernels tried (perfbench/README.md) it followed the slowdowns of the
/// measured code most closely. It is written here, uses no library code,
/// so no change to the library speeds it up, and must not change once
/// results have been recorded with it.
class Calibration {
 public:
  Calibration();
  ~Calibration();
  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;
  /// Runs the kernel: the reference for the next Time(). Call it before
  /// an operation that follows untimed work.
  void Begin() { before_ms_ = KernelMs(); }
  /// Runs `f`, then the kernel, and returns f's wall time and that time
  /// divided by the mean of the two kernel runs around it. The closing run
  /// opens the next Time(), so back-to-back calls share it.
  template <typename F>
  Timed Time(F&& f) {
    const double t0 = NowS();
    f();
    const double ms = (NowS() - t0) * 1e3;
    const double before = before_ms_;
    before_ms_ = KernelMs();
    return {ms, ms / (0.5 * (before + before_ms_))};
  }
  /// Median kernel time of this run, in ms.
  double MedianMs() const;

 private:
  double KernelMs();

  std::vector<void*> live_;
  std::unordered_map<uint64_t, uint64_t> map_;
  uint64_t x_ = 88172645463325252ULL;
  double before_ms_ = 0;
  std::vector<double> kernel_ms_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.cc.
struct WorkloadResult {
  std::vector<double> setup_s;  // one per session set-up
  std::vector<double> op_ms;    // one per timed operation, wall
  std::vector<double> op_cal;   // the same operations in calibration units
  /// Work units (lifecycles / committed txs / DES events) per second, and
  /// per calibration unit, of each session of lifecycles, each block or
  /// each epidemic; the run reports their medians.
  std::vector<double> rate;
  std::vector<double> rate_cal;
  double cal_kernel_ms = 0;     // median calibration-kernel time of the run
  double exact_work = 0;        // gas / gas / DES events, an exact count
  std::string op_name;          // what one op is, for the summary
  std::string work_name;        // what one work unit is
  std::string exact_name;       // what the exact count counts
  /// The workload's end-to-end numbers under its own names
  /// (lifecycle_p50_ms, tx_per_s, ...), printed in the human summary.
  std::vector<Metric> named;
  /// Traced run only: every per-layer metric this workload measured.
  std::map<std::string, double> layers;
  /// Traced run only: layer -> ms per op, reconciled against op wall time.
  std::vector<std::pair<std::string, double>> reconcile;
  double reconcile_wall_ms = 0;  // wall ms per op the layers should explain
};

/// Snapshot of the global obs registry's counters, for before/after deltas.
std::map<std::string, uint64_t> CounterSnapshot();
/// after - before for every counter in `after`.
std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);
/// Per-layer metrics derived from existing chain.*, pool.*, market.* and
/// store.* counters (0 when the workload never reached the layer).
void AddCounterLayers(const std::map<std::string, uint64_t>& delta,
                      std::map<std::string, double>* layers);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Turns on metrics and tracing for a traced session (restoring off after).
class ObsScope {
 public:
  explicit ObsScope(bool tracing);
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
  ~ObsScope();
};

/// Per-layer wall time from the spans the library already emits: each
/// span's self time (its duration minus the union of its same-thread
/// children) is charged to the nearest enclosing span, itself included,
/// whose name is a key of `layer_of`; returns layer -> total ms. Spans with
/// no such ancestor are charged to "" (unattributed).
std::map<std::string, double> SpanLayerMs(
    const std::map<std::string, std::string>& layer_of);

/// Host and build context printed with every result.
std::string ContextJson();

}  // namespace perfbench

#endif  // PDS2_PERFBENCH_HARNESS_H_
