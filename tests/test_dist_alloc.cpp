// Enforces the allocation-free distributed steady state: once capacities are
// warm (no node-id growth), a topology change driven through DistMis or
// AsyncMis — graph mutation, network round machinery, protocol views, cost
// collection — must perform zero heap allocations end to end. This is the
// distributed mirror of tests/test_update_alloc.cpp and guards the flat
// rebuild of the simulation stack (mailbox arena, flat link clocks,
// NeighborView records, engine-owned former-neighbor scratch).
//
// Allocations are counted by replacing the global operator new/delete for
// this test binary (each test file is its own executable, so the override is
// contained). The measured sections use no gtest macros and no standard
// containers of their own; anything they allocate is the engine's fault.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/async_mis.hpp"
#include "core/dist_mis.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dmis;
using graph::NodeId;

/// Warm start graph with an edge table reserved past every key a toggle
/// sequence over n nodes can produce, so the FlatSet never rehashes
/// mid-measurement (the copies inside the engines inherit the capacity).
graph::DynamicGraph warm_graph(NodeId n, double deg, std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = graph::random_avg_degree(n, deg, rng);
  g.reserve_edges(static_cast<std::size_t>(n) * n);
  return g;
}

/// Toggle `ops` pseudo-random edges (remove if present — alternating
/// graceful/abrupt — insert otherwise), returning the allocations performed.
std::uint64_t dist_toggles(core::DistMis& mis, NodeId n, std::uint64_t ops,
                           util::Rng& rng) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (mis.graph().has_edge(u, v)) {
      mis.remove_edge(u, v,
                      (i & 1) != 0 ? core::DeletionMode::kAbrupt
                                   : core::DeletionMode::kGraceful);
    } else {
      mis.insert_edge(u, v);
    }
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::uint64_t async_toggles(core::AsyncMis& mis, NodeId n, std::uint64_t ops,
                            util::Rng& rng) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (mis.graph().has_edge(u, v)) mis.remove_edge(u, v);
    else mis.insert_edge(u, v);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(DistAlloc, SteadyStateSyncChurnIsAllocationFree) {
  const NodeId n = 64;
  core::DistMis mis(warm_graph(n, 6.0, 5), 7);

  util::Rng rng(11);
  // Warm-up: grows the network's round buffers (outbox, staging, arena,
  // worklist, mailbox table), every node's NeighborView capacity and the
  // graph adjacency to their steady-state high-water marks.
  (void)dist_toggles(mis, n, 20'000, rng);

  const std::uint64_t allocs = dist_toggles(mis, n, 5'000, rng);
  EXPECT_EQ(allocs, 0U) << "steady-state distributed changes must not allocate";
  mis.verify();
}

TEST(DistAlloc, SteadyStateNodeRemovalDoesNotAllocate) {
  // Node *removal* must also be allocation-free in steady state (insertions
  // legitimately grow the id space): warm a graph, then gracefully and
  // abruptly retire nodes without inserting replacements.
  const NodeId n = 96;
  core::DistMis mis(warm_graph(n, 4.0, 9), 13);
  util::Rng rng(23);
  (void)dist_toggles(mis, n, 10'000, rng);

  // Warm the removal path's scratch too (former-neighbor buffer).
  mis.remove_node(0, core::DeletionMode::kGraceful);
  mis.remove_node(1, core::DeletionMode::kAbrupt);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (NodeId v = 2; v < 34; ++v) {
    mis.remove_node(v, (v & 1) != 0 ? core::DeletionMode::kAbrupt
                                    : core::DeletionMode::kGraceful);
  }
  const std::uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0U) << "steady-state node removal must not allocate";
  mis.verify();
}

TEST(DistAlloc, SteadyStateAsyncChurnIsAllocationFree) {
  const NodeId n = 64;
  core::AsyncMis mis(core::EngineCore(warm_graph(n, 6.0, 6), 17), 0xbeef, 8);

  util::Rng rng(19);
  // Warm-up: event-queue high-water mark, flat link clocks for every
  // directed link the toggle sequence exercises, NeighborView capacities.
  (void)async_toggles(mis, n, 20'000, rng);

  const std::uint64_t allocs = async_toggles(mis, n, 5'000, rng);
  EXPECT_EQ(allocs, 0U) << "steady-state async changes must not allocate";
  mis.verify();
}

TEST(DistAlloc, ColdEngineEventuallyStopsAllocating) {
  // From a cold start the engines may allocate (vector growth, rehashes,
  // fresh links) but the allocation rate must go to zero: successive windows
  // of the same toggle workload eventually allocate exactly nothing.
  const NodeId n = 48;
  auto g = graph::DynamicGraph(n);
  g.reserve_edges(static_cast<std::size_t>(n) * n);
  core::DistMis mis(g, 21);
  util::Rng rng(17);
  std::uint64_t last = ~0ULL;
  bool reached_zero = false;
  for (int window = 0; window < 12; ++window) {
    const std::uint64_t allocs = dist_toggles(mis, n, 4'000, rng);
    if (allocs == 0) reached_zero = true;
    last = allocs;
  }
  EXPECT_TRUE(reached_zero);
  EXPECT_EQ(last, 0U);
  mis.verify();
}

}  // namespace
