// Unit tests for LockFreeEngine, the barrier-free CAS engine.
//
// The fixpoint-uniqueness theorem (paper §3) makes every check here exact:
// whatever interleaving the workers race through, the converged membership
// must equal the sequential greedy oracle's on the same priority keys. The
// suite covers the paper's seed constructions (clique / path / star), the
// abrupt-delete Lemma 13 shape (hub removal waking the whole neighborhood),
// epoch-tag rollover, and a multi-threaded churn stress loop that
// the CI TSan leg runs 4-threaded (this file is in the TSan job's target
// list; under DMIS_THREADS=4 every constructor below defaults to 4 workers,
// so the stress loop races real threads). Snapshot starts are covered by
// test_snapshot.cpp's engine × source × mode × version matrix.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/cascade_engine.hpp"
#include "core/greedy_mis.hpp"
#include "core/lockfree_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using namespace dmis::core;
using graph::NodeId;

void expect_matches_oracle(LockFreeEngine& engine) {
  const Membership oracle = greedy_mis(engine.graph(), engine.priorities());
  engine.graph().for_each_node([&](NodeId v) {
    EXPECT_EQ(engine.in_mis(v), oracle[v] != 0) << "node " << v;
  });
}

TEST(LockFreeEngine, PathBasics) {
  LockFreeEngine engine(0);
  for (NodeId v = 0; v < 4; ++v) engine.priorities().set_key(v, v);
  (void)engine.add_node();
  (void)engine.add_node({0});
  (void)engine.add_node({1});
  (void)engine.add_node({2});
  EXPECT_TRUE(engine.in_mis(0));
  EXPECT_FALSE(engine.in_mis(1));
  EXPECT_TRUE(engine.in_mis(2));
  EXPECT_FALSE(engine.in_mis(3));
  engine.verify();
}

// The paper's seed constructions: the clique (|MIS| = 1 regardless of
// schedule), the path (alternation anchored at the minimum key) and the
// star (§5's amortization example).
TEST(LockFreeEngine, SeedGraphsMatchOracle) {
  const graph::DynamicGraph seeds[] = {graph::complete(40), graph::path(60),
                                       graph::star(50)};
  for (const graph::DynamicGraph& g : seeds) {
    for (std::uint64_t seed : {7ULL, 42ULL, 1234ULL}) {
      LockFreeEngine engine(g, seed);
      expect_matches_oracle(engine);
      engine.verify();
      if (g.node_count() == 40) {
        EXPECT_EQ(engine.mis_size(), 1U);  // clique
      }
    }
  }
}

TEST(LockFreeEngine, EdgeInsertCascadeChain) {
  // The alternating-path flip: one insertion re-decides the whole chain.
  LockFreeEngine engine(0);
  for (NodeId v = 0; v < 6; ++v) engine.priorities().set_key(v, v);
  (void)engine.add_node();
  (void)engine.add_node();
  (void)engine.add_node({1});
  (void)engine.add_node({2});
  (void)engine.add_node({3});
  (void)engine.add_node({4});
  const auto& rep = engine.add_edge(0, 1);
  EXPECT_EQ(rep.adjustments, 5U);
  EXPECT_EQ(rep.changed, (std::vector<NodeId>{1, 2, 3, 4, 5}));
  engine.verify();
}

// The Lemma 13 shape: abruptly deleting a hub (a member) wakes its whole
// neighborhood at once — the multi-source repair the paper bounds by
// O(min{log n, d}) broadcasts. Differential against CascadeEngine so the
// adjustment accounting is pinned too, not just the membership.
TEST(LockFreeEngine, AbruptHubDeleteMatchesCascade) {
  for (std::uint64_t seed : {3ULL, 19ULL, 77ULL}) {
    const graph::DynamicGraph g0 = graph::star(64);
    CascadeEngine cascade(g0, seed);
    LockFreeEngine lockfree(g0, seed);
    // Delete the center (degree 63); every leaf re-decides.
    const auto& want = cascade.remove_node(0);
    const auto& got = lockfree.remove_node(0);
    EXPECT_EQ(got.adjustments, want.adjustments);
    EXPECT_EQ(got.changed, want.changed);
    expect_matches_oracle(lockfree);
    lockfree.verify();
  }
  // Repeated hub kills on a heavy-tailed graph: each deletion is abrupt
  // from the engine's point of view (no graceful staging exists here).
  util::Rng rng(11);
  const graph::DynamicGraph g0 = graph::barabasi_albert(200, 4, rng);
  CascadeEngine cascade(g0, 5);
  LockFreeEngine lockfree(g0, 5);
  for (int round = 0; round < 8; ++round) {
    // Kill the highest-degree live node — the adversarial Lemma 13 point.
    NodeId hub = graph::kInvalidNode;
    std::uint32_t best = 0;
    cascade.graph().for_each_node([&](NodeId v) {
      if (hub == graph::kInvalidNode || cascade.graph().degree(v) > best) {
        hub = v;
        best = cascade.graph().degree(v);
      }
    });
    ASSERT_NE(hub, graph::kInvalidNode);
    const auto& want = cascade.remove_node(hub);
    const auto& got = lockfree.remove_node(hub);
    EXPECT_EQ(got.adjustments, want.adjustments);
    EXPECT_EQ(got.changed, want.changed);
  }
  expect_matches_oracle(lockfree);
  lockfree.verify();
}

TEST(LockFreeEngine, AdjustmentsMatchMembershipDiff) {
  util::Rng rng(9);
  LockFreeEngine engine(17);
  std::vector<NodeId> live;
  for (int i = 0; i < 40; ++i) live.push_back(engine.add_node());
  for (int step = 0; step < 400; ++step) {
    const auto before = engine.membership();
    std::uint64_t reported = 0;
    if (rng.real01() < 0.5) {
      const NodeId u = live[rng.below(live.size())];
      const NodeId v = live[rng.below(live.size())];
      if (u == v || engine.graph().has_edge(u, v)) continue;
      reported = engine.add_edge(u, v).adjustments;
    } else {
      const auto edges = engine.graph().edges();
      if (edges.empty()) continue;
      const auto& [u, v] = edges[rng.below(edges.size())];
      reported = engine.remove_edge(u, v).adjustments;
    }
    const auto after = engine.membership();
    std::uint64_t diff = 0;
    for (std::size_t v = 0; v < after.size(); ++v)
      diff += (v < before.size() && before[v]) != after[v] ? 1 : 0;
    EXPECT_EQ(reported, diff);
  }
  engine.verify();
}

// The 32-bit epoch tag wraps after 2^32 - 1 repairs; debug_set_epoch jumps
// the counter to the brink so a handful of ops cross the rollover. The
// rollover path rewrites every settled word to tag 0 — membership must ride
// through unchanged and subsequent repairs must stay oracle-exact.
TEST(LockFreeEngine, EpochTagRollover) {
  util::Rng rng(21);
  const graph::DynamicGraph g0 = graph::random_avg_degree(80, 6.0, rng);
  LockFreeEngine engine(g0, 13);
  const Membership before = engine.membership();
  engine.debug_set_epoch(~std::uint32_t{0} - 2);
  EXPECT_EQ(engine.membership(), before);
  engine.verify();
  workload::ChurnGenerator gen(g0, {}, 99);
  for (int i = 0; i < 32; ++i) {
    workload::apply(engine, gen.next());
    expect_matches_oracle(engine);
  }
  // The counter wrapped past ~0 and restarted low.
  EXPECT_LT(engine.debug_epoch(), 64U);
  engine.verify();
}

// Multi-threaded stress: 4 workers racing over mixed churn on a graph big
// enough that repair frontiers overlap. Under the CI TSan leg this is the
// race detector's main course; everywhere it is a schedule-independence
// check (4-worker result == 1-worker result == oracle, op for op).
TEST(LockFreeEngine, FourThreadStressMatchesOracle) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    util::Rng rng(seed);
    const graph::DynamicGraph g0 = graph::random_avg_degree(150, 8.0, rng);
    const std::uint64_t prio_seed = seed * 1000 + 17;
    CascadeEngine cascade(g0, prio_seed);
    LockFreeEngine threaded(EngineCore(g0, prio_seed), /*workers=*/4);
    EXPECT_EQ(threaded.worker_count(), 4U);
    workload::ChurnConfig config;
    config.p_abrupt = 0.5;
    workload::ChurnGenerator gen(g0, config, seed + 99);
    for (int i = 0; i < 300; ++i) {
      const workload::GraphOp op = gen.next();
      workload::apply(cascade, op);
      workload::apply(threaded, op);
      ASSERT_EQ(threaded.last_report().adjustments,
                cascade.last_report().adjustments)
          << "seed " << seed << " op " << i;
      ASSERT_EQ(threaded.membership(), cascade.membership())
          << "seed " << seed << " op " << i;
    }
    threaded.verify();
    EXPECT_TRUE(threaded.graph() == gen.graph());
  }
}

TEST(LockFreeEngine, MisSetMatchesMembership) {
  util::Rng rng(13);
  const auto g = graph::erdos_renyi(50, 0.1, rng);
  LockFreeEngine engine(g, 7);
  const auto set = engine.mis_set();
  for (const NodeId v : g.nodes()) EXPECT_EQ(set.contains(v), engine.in_mis(v));
  EXPECT_TRUE(graph::is_maximal_independent_set(g, set));
}

}  // namespace
