// NetSim seed determinism on a gossip-learning run: the same seed gives an
// identical trajectory (model parameters, ages, network stats), and the
// next seed gives a different one — so the equality check can fail.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "dml/gossip.h"
#include "dml/netsim.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace pds2::dml {
namespace {

using common::SimTime;

constexpr size_t kNodes = 8;
constexpr size_t kFeatures = 4;
constexpr SimTime kDuration = 5 * common::kMicrosPerSecond;

struct Fingerprint {
  std::vector<ml::Vec> params;
  std::vector<uint64_t> ages;
  NetStats stats;
};

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.params == b.params && a.ages == b.ages &&
         a.stats.messages_sent == b.stats.messages_sent &&
         a.stats.messages_delivered == b.stats.messages_delivered &&
         a.stats.messages_dropped == b.stats.messages_dropped &&
         a.stats.bytes_sent == b.stats.bytes_sent &&
         a.stats.bytes_received_per_node == b.stats.bytes_received_per_node;
}

// Runs a fresh 8-node gossip-learning simulation (lossy, jittery network)
// and fingerprints every node's learned state plus the network counters.
Fingerprint RunGossipSim(uint64_t seed) {
  NetConfig net;
  net.drop_rate = 0.1;
  NetSim sim(net, seed);

  common::Rng data_rng(7);
  std::vector<GossipNode*> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    auto node = std::make_unique<GossipNode>(
        std::make_unique<ml::LogisticRegressionModel>(kFeatures),
        ml::MakeTwoGaussians(40, kFeatures, 3.0, data_rng), GossipConfig{});
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  sim.Start();
  sim.RunUntil(kDuration);

  Fingerprint fp;
  for (GossipNode* node : nodes) {
    fp.params.push_back(node->model().GetParams());
    fp.ages.push_back(node->age());
  }
  fp.stats = sim.stats();
  return fp;
}

TEST(NetSimSeedTest, GossipRunIsAPureFunctionOfTheSeed) {
  const Fingerprint reference = RunGossipSim(/*seed=*/42);
  EXPECT_GT(reference.stats.messages_delivered, 0u);  // the run did work
  EXPECT_TRUE(RunGossipSim(42) == reference);
  EXPECT_FALSE(RunGossipSim(43) == reference)
      << "seed 43 reproduced seed 42: the fingerprint ignores the seed";
}

}  // namespace
}  // namespace pds2::dml
