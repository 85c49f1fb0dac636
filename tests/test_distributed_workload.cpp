// Tests for the trace-driven distributed runner (workload/distributed.hpp):
// cost samples must agree with driving the engines directly, replay and
// streaming must preserve engine/generator graph agreement, and the degree
// footprint labeling (the d(v*) of the paper's bounds) must be correct.
#include <gtest/gtest.h>

#include <vector>

#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "workload/distributed.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using workload::CostSample;
using workload::OpKind;

TEST(DistributedWorkload, SampleCostsMatchDirectDriving) {
  // The same seeded trace on two identical engines — one driven directly,
  // one through apply_with_cost — must produce identical costs and outputs.
  util::Rng rng(5);
  const auto g = graph::random_avg_degree(60, 5.0, rng);
  core::DistMis direct(g, 21);
  core::DistMis sampled(g, 21);

  workload::ChurnConfig config;
  config.p_unmute = 0.2;
  workload::ChurnGenerator gen(g, config, 17);
  const workload::Trace trace = gen.generate(60);

  std::vector<CostSample> samples;
  workload::replay_with_costs(sampled, trace, [&](const CostSample& s) {
    samples.push_back(s);
  });
  ASSERT_EQ(samples.size(), trace.size());

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const CostSample direct_sample = workload::apply_with_cost(direct, trace[i]);
    EXPECT_EQ(samples[i].cost.rounds, direct_sample.cost.rounds) << i;
    EXPECT_EQ(samples[i].cost.broadcasts, direct_sample.cost.broadcasts) << i;
    EXPECT_EQ(samples[i].cost.bits, direct_sample.cost.bits) << i;
    EXPECT_EQ(samples[i].cost.adjustments, direct_sample.cost.adjustments) << i;
    EXPECT_EQ(samples[i].kind, trace[i].kind);
  }
  EXPECT_TRUE(direct.graph() == sampled.graph());
  direct.verify();
  sampled.verify();
}

TEST(DistributedWorkload, StreamChurnKeepsEngineAndGeneratorInLockstep) {
  util::Rng rng(7);
  const auto g = graph::random_avg_degree(40, 4.0, rng);
  core::DistMis mis(g, 3);
  workload::ChurnConfig config;
  config.p_abrupt = 0.6;
  workload::ChurnGenerator gen(g, config, 11);

  std::size_t count = 0;
  workload::stream_churn(mis, gen, 120, [&](const CostSample&) { ++count; });
  EXPECT_EQ(count, 120U);
  EXPECT_TRUE(mis.graph() == gen.graph());
  mis.verify();
}

TEST(DistributedWorkload, AsyncStreamMatchesOracle) {
  util::Rng rng(13);
  const auto g = graph::random_avg_degree(30, 4.0, rng);
  core::AsyncMis mis(core::EngineCore(g, 5), 0xfeed, 8);
  workload::ChurnGenerator gen(g, workload::ChurnConfig{}, 23);

  workload::stream_churn(mis, gen, 100, [](const CostSample& s) {
    // Async costs carry the causal-depth round measure; it is finite and
    // small for every single change.
    EXPECT_LT(s.cost.rounds, 500U);
  });
  EXPECT_TRUE(mis.graph() == gen.graph());
  mis.verify();
}

TEST(DistributedWorkload, DegreeFootprintLabelsVictimAndAttachment) {
  core::DistMis mis(graph::star(6), 9);  // center 0, leaves 1..5
  const CostSample removal =
      workload::apply_with_cost(mis, workload::GraphOp::remove_node(0, true));
  EXPECT_EQ(removal.kind, OpKind::kRemoveNodeAbrupt);
  EXPECT_EQ(removal.degree, 5U);

  const CostSample insert = workload::apply_with_cost(
      mis, workload::GraphOp::add_node({1, 2, 3}));
  EXPECT_EQ(insert.kind, OpKind::kAddNode);
  EXPECT_EQ(insert.degree, 3U);

  const CostSample edge =
      workload::apply_with_cost(mis, workload::GraphOp::add_edge(1, 2));
  EXPECT_EQ(edge.degree, 0U);
  mis.verify();
}

}  // namespace
