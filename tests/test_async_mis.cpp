// Correctness and cost tests for the asynchronous direct implementation
// (Corollary 6): outputs equal the greedy oracle under arbitrary message
// delays; the causal-chain "round" complexity is O(1) in expectation.
#include <gtest/gtest.h>

#include <tuple>

#include "core/async_mis.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/stats.hpp"

namespace {

using namespace dmis::core;
using dmis::graph::DynamicGraph;

class AsyncMisParam
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(AsyncMisParam, ChurnMatchesOracleUnderDelays) {
  const auto [seed, max_delay] = GetParam();
  dmis::util::Rng rng(seed);
  AsyncMis mis(EngineCore(DynamicGraph(12), seed * 3 + 1), seed ^ 0xbeef, max_delay);
  for (int step = 0; step < 60; ++step) {
    const double roll = rng.real01();
    const auto live = mis.graph().nodes();
    if (roll < 0.35) {
      const NodeId u = live[rng.below(live.size())];
      const NodeId v = live[rng.below(live.size())];
      if (u != v && !mis.graph().has_edge(u, v)) mis.insert_edge(u, v);
    } else if (roll < 0.6) {
      const auto edges = mis.graph().edges();
      if (!edges.empty()) {
        const auto& [u, v] = edges[rng.below(edges.size())];
        mis.remove_edge(u, v);
      }
    } else if (roll < 0.8 || live.size() < 4) {
      std::vector<NodeId> neighbors;
      for (const NodeId cand : live)
        if (rng.chance(0.25)) neighbors.push_back(cand);
      if (rng.chance(0.3)) mis.unmute_node(neighbors);
      else mis.insert_node(neighbors);
    } else {
      mis.remove_node(live[rng.below(live.size())]);
    }
    mis.verify();
    EXPECT_TRUE(
        dmis::graph::is_maximal_independent_set(mis.graph(), mis.mis_set()));
  }
}

INSTANTIATE_TEST_SUITE_P(SeedAndDelaySweep, AsyncMisParam,
                         ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL, 4ULL),
                                            ::testing::Values(1ULL, 4ULL, 16ULL,
                                                              64ULL)));

TEST(AsyncMis, CausalDepthConstantOnAverage) {
  dmis::util::OnlineStats depth;
  dmis::util::OnlineStats adjustments;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    dmis::util::Rng rng(seed + 3);
    const auto g = dmis::graph::random_avg_degree(120, 6.0, rng);
    AsyncMis mis(EngineCore(g, seed * 5 + 2), seed ^ 0xf00d, 8);
    const NodeId u = static_cast<NodeId>(rng.below(120));
    const NodeId v = static_cast<NodeId>(rng.below(120));
    if (u == v || mis.graph().has_edge(u, v)) continue;
    const auto result = mis.insert_edge(u, v);
    mis.verify();
    depth.add(static_cast<double>(result.cost.rounds));
    adjustments.add(static_cast<double>(result.cost.adjustments));
  }
  // Depth includes the constant introduction handshake; what matters is
  // that it does not scale with n.
  EXPECT_LE(depth.mean(), 8.0);
  EXPECT_LE(adjustments.mean(), 1.2);
}

TEST(AsyncMis, IsolatedInsertJoinsImmediately) {
  AsyncMis mis(EngineCore(7), 8);
  const auto result = mis.insert_node({});
  EXPECT_TRUE(mis.in_mis(result.node));
  EXPECT_EQ(result.cost.adjustments, 1U);
  mis.verify();
}

TEST(AsyncMis, JoinWaitsForAllIntroductions) {
  // A node attaching to many neighbors settles exactly once (no transient
  // flip storm): adjustments ≤ 1 + neighbors that had to step down.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    AsyncMis mis(EngineCore(DynamicGraph(8), seed), seed + 1, 16);
    std::vector<NodeId> all;
    for (NodeId v = 0; v < 8; ++v) all.push_back(v);
    const auto result = mis.insert_node(all);
    mis.verify();
    // Either the joiner is dominated (0 adjustments) or it joins and every
    // isolated node leaves (9 adjustments).
    EXPECT_TRUE(result.cost.adjustments == 0 || result.cost.adjustments == 9)
        << result.cost.adjustments;
  }
}

TEST(AsyncMis, DeterministicGivenSeeds) {
  auto run = [] {
    AsyncMis mis(EngineCore(DynamicGraph(6), 11), 13, 8);
    mis.insert_edge(0, 1);
    mis.insert_edge(1, 2);
    mis.remove_edge(0, 1);
    mis.insert_node({0, 2, 4});
    std::vector<bool> out;
    for (const NodeId v : mis.graph().nodes()) out.push_back(mis.in_mis(v));
    return out;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
