#ifndef PDS2_OBS_HEALTH_RULES_H_
#define PDS2_OBS_HEALTH_RULES_H_

#include <string>
#include <vector>

#include "obs/health.h"

/// Default health rule packs, one per instrumented subsystem. Each pack
/// only references metrics that subsystem already publishes; the
/// HealthMonitor skips rules whose series are absent, so registering every
/// pack on a run that exercises one subsystem is safe and a fault-free
/// seeded run fires nothing.
///
/// Rules deliberately avoid thread-count-dependent series (pool.*,
/// chain.sig_cache_hits): alert streams must be bit-identical when the same
/// seeded run executes on 1 vs N pool threads. The supply-conservation
/// invariant reads gauges Chain publishes after every block from
/// WorldState's running balance total, so watching it does not walk the
/// accounts.
namespace pds2::obs::rules {

/// Chain: supply conservation (circulating + staked + burned == genesis,
/// gauges published by Chain after every commit), block rejections, and
/// mempool saturation against the admission cap.
inline std::vector<HealthRule> ChainRules(
    double mempool_depth_bound = 60000.0) {
  std::vector<HealthRule> pack;
  pack.push_back(InvariantRule(
      "chain.supply-conservation", Severity::kCritical,
      [](const TimeSeries& ts) {
        InvariantResult r;
        const auto circulating = ts.Latest("chain.supply.circulating");
        const auto staked = ts.Latest("chain.supply.staked");
        const auto burned = ts.Latest("chain.supply.burned");
        const auto genesis = ts.Latest("chain.supply.genesis");
        if (!circulating || !staked || !burned || !genesis || *genesis <= 0) {
          return r;  // chain not instrumented in this run
        }
        r.observed = *circulating + *staked + *burned;
        r.bound = *genesis;
        r.ok = r.observed == r.bound;
        if (!r.ok) r.detail = "balances+stakes+burned != genesis mint";
        return r;
      }));
  pack.push_back(ThresholdRule("chain.blocks-rejected", Severity::kWarning,
                               "chain.blocks_rejected", Comparison::kGt, 0.0));
  pack.push_back(ThresholdRule("chain.mempool-saturated", Severity::kWarning,
                               "chain.mempool.depth", Comparison::kGt,
                               mempool_depth_bound));
  pack.push_back(ThresholdRule("chain.mempool-evicting", Severity::kInfo,
                               "chain.mempool.evicted_below_floor",
                               Comparison::kGt, 0.0));
  return pack;
}

/// P2P validator network: equivocation evidence is critical (a slashing
/// condition was observed); sustained sync retries mean peers cannot catch
/// up faster than they fall behind.
inline std::vector<HealthRule> P2pRules(
    double sync_retry_rate_per_sec = 50.0) {
  std::vector<HealthRule> pack;
  pack.push_back(ThresholdRule("p2p.equivocation-detected",
                               Severity::kCritical, "p2p.evidence.detected",
                               Comparison::kGt, 0.0));
  pack.push_back(ThresholdRule("p2p.blocks-rejected", Severity::kWarning,
                               "p2p.blocks_rejected", Comparison::kGt, 0.0));
  pack.push_back(RateRule("p2p.sync-retry-storm", Severity::kWarning,
                          "p2p.sync_retries", /*window=*/8, Comparison::kGt,
                          sync_retry_rate_per_sec));
  return pack;
}

/// Marketplace: lifecycle fault counters that stay zero on a healthy run.
/// Substitution verify failures are critical — a cached artifact that does
/// not match its chain-anchored hash is a store integrity breach.
inline std::vector<HealthRule> MarketRules() {
  std::vector<HealthRule> pack;
  pack.push_back(ThresholdRule("market.substitution-verify-failure",
                               Severity::kCritical,
                               "market.substitution_verify_failures",
                               Comparison::kGt, 0.0));
  pack.push_back(ThresholdRule("market.executor-dropped", Severity::kWarning,
                               "market.executors_dropped", Comparison::kGt,
                               0.0));
  pack.push_back(ThresholdRule("market.attestation-fault", Severity::kWarning,
                               "market.attestation_faults_reported",
                               Comparison::kGt, 0.0));
  pack.push_back(ThresholdRule("market.workload-aborted", Severity::kWarning,
                               "market.workloads_aborted", Comparison::kGt,
                               0.0));
  pack.push_back(ThresholdRule("market.executor-slashed", Severity::kWarning,
                               "market.executors_slashed", Comparison::kGt,
                               0.0));
  return pack;
}

/// DML / NetSim: link corruption and partition drops are injected-fault
/// tells; gossip convergence lag is an absence rule — merges must keep
/// happening while the network is still delivering traffic.
inline std::vector<HealthRule> DmlRules(size_t gossip_stall_samples = 8) {
  std::vector<HealthRule> pack;
  pack.push_back(ThresholdRule("dml.corruption-observed", Severity::kWarning,
                               "dml.net.messages_corrupted", Comparison::kGt,
                               0.0));
  pack.push_back(ThresholdRule("dml.partition-active", Severity::kWarning,
                               "dml.net.partition_drops", Comparison::kGt,
                               0.0));
  pack.push_back(AbsenceRule("dml.gossip-stalled", Severity::kWarning,
                             "dml.gossip.merges", gossip_stall_samples,
                             /*activity_series=*/"dml.net.messages_sent"));
  return pack;
}

/// Store: a chunk failing its content-address re-hash is critical (data
/// integrity); corrupt discovery messages are expected only under injected
/// corruption.
inline std::vector<HealthRule> StoreRules() {
  std::vector<HealthRule> pack;
  pack.push_back(ThresholdRule("store.verification-failure",
                               Severity::kCritical,
                               "store.corrupt_chunks_rejected",
                               Comparison::kGt, 0.0));
  pack.push_back(ThresholdRule("store.discovery-corrupt", Severity::kWarning,
                               "store.discovery.corrupt_messages_dropped",
                               Comparison::kGt, 0.0));
  return pack;
}

/// Every subsystem's defaults in one call (what tools and benches use).
inline std::vector<HealthRule> DefaultRules() {
  std::vector<HealthRule> all;
  for (auto pack : {ChainRules(), P2pRules(), MarketRules(), DmlRules(),
                    StoreRules()}) {
    for (HealthRule& rule : pack) all.push_back(std::move(rule));
  }
  return all;
}

}  // namespace pds2::obs::rules

#endif  // PDS2_OBS_HEALTH_RULES_H_
