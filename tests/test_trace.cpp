// Unit tests for trace serialization and the workload::apply dispatch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/async_mis.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/template_engine.hpp"
#include "graph/generators.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis::workload;

TEST(Trace, GrowTraceRebuildsGraph) {
  dmis::util::Rng rng(1);
  const auto g = dmis::graph::erdos_renyi(25, 0.15, rng);
  const auto trace = grow_trace(g);
  EXPECT_TRUE(materialize(trace) == g);
}

TEST(Trace, WriteReadRoundTrip) {
  Trace trace;
  trace.push_back(GraphOp::add_node());
  trace.push_back(GraphOp::add_node({0}));
  trace.push_back(GraphOp::unmute_node({0, 1}));
  trace.push_back(GraphOp::add_edge(0, 1));
  trace.push_back(GraphOp::remove_edge(0, 1));
  trace.push_back(GraphOp::remove_edge(0, 2, /*abrupt=*/true));
  trace.push_back(GraphOp::remove_node(1));
  trace.push_back(GraphOp::remove_node(2, /*abrupt=*/true));

  std::stringstream ss;
  write_trace(ss, trace);
  const Trace back = read_trace(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].kind, trace[i].kind) << "op " << i;
    EXPECT_EQ(back[i].u, trace[i].u);
    EXPECT_EQ(back[i].v, trace[i].v);
    EXPECT_EQ(back[i].neighbors, trace[i].neighbors);
  }
}

TEST(Trace, CommentsIgnoredOnRead) {
  std::stringstream ss("# a trace\nan\nan 0\nae 0 1\n");
  const Trace trace = read_trace(ss);
  ASSERT_EQ(trace.size(), 3U);
  EXPECT_EQ(trace[0].kind, OpKind::kAddNode);
  EXPECT_EQ(trace[1].neighbors, (std::vector<dmis::graph::NodeId>{0}));
  EXPECT_EQ(trace[2].kind, OpKind::kAddEdge);
}

TEST(Trace, AllEnginePathsAcceptTheSameTrace) {
  ChurnConfig config;
  config.p_unmute = 0.5;
  ChurnGenerator gen(dmis::graph::DynamicGraph(6), config, 21);
  Trace trace;
  for (int i = 0; i < 6; ++i) trace.push_back(GraphOp::add_node());
  const auto churn = gen.generate(40);
  trace.insert(trace.end(), churn.begin(), churn.end());

  dmis::core::CascadeEngine cascade(3);
  dmis::core::TemplateEngine tmpl(3);
  dmis::core::DistMis dist(3);
  dmis::core::AsyncMis async(dmis::core::EngineCore(3), 99);
  replay(cascade, trace);
  replay(tmpl, trace);
  replay(dist, trace);
  replay(async, trace);

  ASSERT_TRUE(cascade.graph() == tmpl.graph());
  ASSERT_TRUE(cascade.graph() == dist.graph());
  ASSERT_TRUE(cascade.graph() == async.graph());
  for (const auto v : cascade.graph().nodes()) {
    EXPECT_EQ(cascade.in_mis(v), tmpl.in_mis(v));
    EXPECT_EQ(cascade.in_mis(v), dist.in_mis(v));
    EXPECT_EQ(cascade.in_mis(v), async.in_mis(v));
  }
}

TEST(Trace, ApplyHandsDistMisTheDeletionModeAndUnmute) {
  // workload::apply must give DistMis the trace's graceful/abrupt marker and
  // its insert/unmute distinction, costing exactly what a direct call costs.
  dmis::util::Rng rng(5);
  const auto g = dmis::graph::erdos_renyi(40, 0.3, rng);
  const dmis::core::DistMis probe(g, 9);
  NodeId member = 0;
  while (!probe.in_mis(member)) ++member;
  const std::vector<NodeId> nbrs = g.nodes();

  using dmis::core::DeletionMode;
  using dmis::core::DistMis;
  const auto cost_of = [&](auto&& change) {
    DistMis mis(g, 9);
    change(mis);
    return mis.network().cost().to_json();
  };
  const auto via_apply = [&](const GraphOp& op) {
    return cost_of([&](DistMis& mis) { apply(mis, op); });
  };
  const std::string abrupt =
      cost_of([&](DistMis& mis) { (void)mis.remove_node(member, DeletionMode::kAbrupt); });
  const std::string graceful =
      cost_of([&](DistMis& mis) { (void)mis.remove_node(member, DeletionMode::kGraceful); });
  const std::string unmuted = cost_of([&](DistMis& mis) { (void)mis.unmute_node(nbrs); });
  const std::string inserted = cost_of([&](DistMis& mis) { (void)mis.insert_node(nbrs); });
  // The distinctions are visible in the cost, so the checks below have teeth.
  ASSERT_NE(abrupt, graceful);
  ASSERT_NE(unmuted, inserted);
  EXPECT_EQ(via_apply(GraphOp::remove_node(member, /*abrupt=*/true)), abrupt);
  EXPECT_EQ(via_apply(GraphOp::remove_node(member, /*abrupt=*/false)), graceful);
  EXPECT_EQ(via_apply(GraphOp::unmute_node(nbrs)), unmuted);
  EXPECT_EQ(via_apply(GraphOp::add_node(nbrs)), inserted);
}

TEST(TraceDeath, MalformedOpRejected) {
  std::stringstream ss("zz 1\n");
  EXPECT_DEATH((void)read_trace(ss), "unknown trace op");
}

}  // namespace
