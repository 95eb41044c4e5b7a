#include "dml/netsim.h"

#include <cassert>

#include "obs/trace.h"

namespace pds2::dml {

using common::Bytes;
using common::SimTime;

SimTime NodeContext::Now() const { return sim_.Now(); }
size_t NodeContext::NumNodes() const { return sim_.NumNodes(); }
bool NodeContext::IsOnline(size_t node) const { return sim_.IsOnline(node); }
void NodeContext::Send(size_t to, Bytes payload) {
  sim_.SendFrom(self_, to, std::move(payload), obs::CurrentTraceContext());
}
void NodeContext::SetTimer(SimTime delay, uint64_t timer_id) {
  sim_.SetTimerFor(self_, delay, timer_id, obs::CurrentTraceContext());
}
void NodeContext::SetOnline(size_t node, bool online) {
  sim_.SetOnline(node, online);
}
common::Rng& NodeContext::rng() { return sim_.rng(); }
void NodeContext::CountRetry() { sim_.CountRetryFor(); }

NetSim::NetSim(NetConfig config, uint64_t seed)
    : config_(config), rng_(seed) {}

void NetSim::Reserve(size_t num_nodes) {
  nodes_.reserve(num_nodes);
  name_ids_.reserve(num_nodes);
  online_.reserve(num_nodes);
  epoch_.reserve(num_nodes);
  stats_.bytes_received_per_node.reserve(num_nodes);
}

size_t NetSim::AddNode(std::unique_ptr<Node> node) {
  assert(!started_);
  nodes_.push_back(std::move(node));
  name_ids_.push_back(0);
  online_.push_back(true);
  epoch_.push_back(0);
  stats_.bytes_received_per_node.push_back(0);
  return nodes_.size() - 1;
}

void NetSim::SetNodeName(size_t node, std::string name) {
  assert(node < name_ids_.size());
  if (name_ids_[node] != 0) {
    name_pool_[name_ids_[node] - 1] = std::move(name);
    return;
  }
  name_pool_.push_back(std::move(name));
  name_ids_[node] = static_cast<uint32_t>(name_pool_.size());
}

std::string NetSim::NodeName(size_t node) const {
  assert(node < name_ids_.size());
  const uint32_t id = name_ids_[node];
  if (id != 0) return name_pool_[id - 1];
  return "node/" + std::to_string(node);
}

void NetSim::CountRetryFor() {
  stats_.retries += 1;
  PDS2_M_COUNT("dml.net.retries", 1);
}

void NetSim::Start() {
  assert(!started_);
  started_ = true;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeContext ctx(*this, i);
    nodes_[i]->OnStart(ctx);
  }
}

void NetSim::SendFrom(size_t from, size_t to, Bytes payload,
                      obs::TraceContext trace) {
  assert(to < nodes_.size());
  stats_.messages_sent += 1;
  stats_.bytes_sent += payload.size();
  PDS2_M_COUNT("dml.net.messages_sent", 1);
  PDS2_M_COUNT("dml.net.bytes_sent", payload.size());

  // The installed fault model is consulted first: a partition blocks the
  // link outright; link faults stack extra loss / latency / corruption on
  // top of the homogeneous NetConfig link. All RNG draws below are gated on
  // their probability being positive so that runs without faults consume
  // the exact same stream as before the fault layer existed.
  LinkFaultHook::Effect effect;
  if (fault_hook_ != nullptr) {
    effect = fault_hook_->OnLink(from, to, clock_.Now());
  }
  if (effect.blocked) {
    stats_.partition_drops += 1;
    stats_.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.partition_drops", 1);
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }
  if (config_.drop_rate > 0.0 && rng_.NextBool(config_.drop_rate)) {
    stats_.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }
  if (effect.extra_drop > 0.0 && rng_.NextBool(effect.extra_drop)) {
    stats_.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }

  SimTime latency = config_.base_latency;
  if (config_.latency_jitter > 0) {
    latency += rng_.NextU64(config_.latency_jitter);
  }
  if (config_.bandwidth_bytes_per_sec > 0) {
    latency += static_cast<SimTime>(
        static_cast<double>(payload.size()) /
        config_.bandwidth_bytes_per_sec * common::kMicrosPerSecond);
  }
  if (effect.latency_mult != 1.0) {
    latency = static_cast<SimTime>(static_cast<double>(latency) *
                                   effect.latency_mult);
  }

  if (effect.corrupt_rate > 0.0 && !payload.empty() &&
      rng_.NextBool(effect.corrupt_rate)) {
    payload[rng_.NextU64(payload.size())] ^=
        static_cast<uint8_t>(1 + rng_.NextU64(255));
    stats_.messages_corrupted += 1;
    PDS2_M_COUNT("dml.net.messages_corrupted", 1);
  }

  PdsEvent event;
  event.kind = PdsEvent::Kind::kMessage;
  event.target = static_cast<uint32_t>(to);
  event.from = static_cast<uint32_t>(from);
  event.target_epoch = epoch_[to];
  event.payload = MsgBuf(std::move(payload));
  event.trace = trace;
  queue_.Schedule(clock_.Now() + latency, std::move(event));
}

void NetSim::SetTimerFor(size_t node, SimTime delay, uint64_t timer_id,
                         obs::TraceContext trace) {
  PdsEvent event;
  event.kind = PdsEvent::Kind::kTimer;
  event.target = static_cast<uint32_t>(node);
  event.timer_id = timer_id;
  event.target_epoch = epoch_[node];
  event.trace = trace;
  queue_.Schedule(clock_.Now() + delay, std::move(event));
}

void NetSim::SetOnline(size_t node, bool online) {
  assert(node < online_.size());
  const bool was_online = online_[node];
  online_[node] = online;
  if (!online && was_online) {
    // Crash: start a new life. Everything scheduled against the old life
    // (timers, in-flight messages) is dropped at fire time via AdmitEvent.
    ++epoch_[node];
  }
  if (started_ && online && !was_online) {
    NodeContext ctx(*this, node);
    nodes_[node]->OnRestart(ctx);
  }
}

bool NetSim::AdmitEvent(const PdsEvent& event) {
  const bool stale = event.target_epoch != epoch_[event.target];
  if (online_[event.target] && !stale) return true;
  if (event.kind == PdsEvent::Kind::kMessage) {
    stats_.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
  } else {
    stats_.timers_dropped_offline += 1;
    PDS2_M_COUNT("dml.net.timers_dropped_offline", 1);
  }
  return false;
}

void NetSim::DispatchEvent(PdsEvent& event) {
  // Delivery re-establishes the sender's causal context: the handler span
  // parents under the span that sent the message (or armed the timer), and
  // is labeled with the receiving node's identity. All scopes are
  // single-branch no-ops while tracing is disabled — including the node
  // label, which is only formatted when a tracer will read it.
  obs::TraceContextScope trace_scope(event.trace);
  obs::NodeScope node_scope(
      "", obs::TracingEnabled() ? NodeName(event.target) : std::string());
  NodeContext ctx(*this, event.target);
  if (event.kind == PdsEvent::Kind::kMessage) {
    stats_.messages_delivered += 1;
    PDS2_M_COUNT("dml.net.messages_delivered", 1);
    stats_.bytes_received_per_node[event.target] += event.payload.size();
    obs::ScopedSpan span("dml.net.deliver", &clock_);
    nodes_[event.target]->OnMessage(ctx, event.from,
                                    event.payload.AsBytes(delivery_scratch_));
  } else {
    obs::ScopedSpan span("dml.net.timer", &clock_);
    nodes_[event.target]->OnTimer(ctx, event.timer_id);
  }
}

void NetSim::SetTickHook(SimTime interval,
                         std::function<void(SimTime)> hook) {
  tick_interval_ = hook ? interval : 0;
  tick_hook_ = std::move(hook);
  next_tick_ = clock_.Now() + tick_interval_;
}

void NetSim::FireTicksBefore(SimTime bound) {
  while (tick_interval_ > 0 && next_tick_ < bound) {
    const SimTime tick = next_tick_;
    next_tick_ += tick_interval_;
    clock_.AdvanceTo(tick);
    tick_hook_(tick);
  }
}

void NetSim::FireTicksThrough(SimTime bound) {
  while (tick_interval_ > 0 && next_tick_ <= bound) {
    const SimTime tick = next_tick_;
    next_tick_ += tick_interval_;
    clock_.AdvanceTo(tick);
    tick_hook_(tick);
  }
}

void NetSim::RunUntil(SimTime t) {
  assert(started_);
  PDS2_TRACE_SPAN_SIM("dml.net.run_until", &clock_);
  SimTime event_time = 0;
  PdsEvent event;
  while (queue_.PopUntil(t, &event_time, &event)) {
    // Ticks strictly before this event fire first; an event stamped at
    // exactly the tick time executes before the tick observes it.
    FireTicksBefore(event_time);
    clock_.AdvanceTo(event_time);
    stats_.events_processed += 1;
    if (!AdmitEvent(event)) continue;
    DispatchEvent(event);
  }
  FireTicksThrough(t);
  clock_.AdvanceTo(t);
}

}  // namespace pds2::dml
