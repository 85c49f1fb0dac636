// Extends the allocation discipline of tests/test_update_alloc.cpp to the
// crash-safe service ingest path: in steady state (warm engine capacities,
// warm WAL serialization buffer, no segment rotation, no checkpoints) a
// MisService::apply must perform zero heap allocations end to end — batch
// reuse, WAL record serialization + write + fsync, engine repair, and
// result bookkeeping included. The replicated leg extends it across log
// shipping: LogShipper::drain (pread into the reused shipment) and
// FollowerService::poll (append, tail view, replay) allocate nothing either.
//
// Same containment trick as test_update_alloc.cpp: this binary replaces
// global operator new/delete and counts; the measured loop uses no gtest
// macros and no containers of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "core/batch.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
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

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / ("dmis_svc_alloc_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Apply `ops` single-op edge-toggle batches through the service, counting
/// the heap allocations of the whole ingest loop (batch build + WAL append
/// + fsync + engine repair + `after_apply`, which must return true).
/// Returns ~0 on any failure.
template <class AfterApply>
std::uint64_t toggles(service::MisService& service, core::Batch& batch, NodeId n,
                      std::uint64_t ops, util::Rng& rng, std::string& error,
                      AfterApply&& after_apply) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    batch.clear();
    if (service.engine().graph().has_edge(u, v)) batch.remove_edge(u, v);
    else batch.add_edge(u, v);
    if (!service.apply(batch, &error) || !after_apply())
      return ~static_cast<std::uint64_t>(0);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::uint64_t toggles(service::MisService& service, core::Batch& batch, NodeId n,
                      std::uint64_t ops, util::Rng& rng, std::string& error) {
  return toggles(service, batch, n, ops, rng, error, [] { return true; });
}

/// Seed n isolated nodes, then drive the graph to complete and back to
/// empty: after this no toggle workload can out-grow the edge table, an
/// adjacency list, or the cascade scratch at this n (the engine-only test
/// gets the same guarantee via reserve_edges; the graph is private here).
/// `after_apply` runs after every apply.
template <class AfterApply>
void warm_to_capacity(service::MisService& service, core::Batch& batch, NodeId n,
                      AfterApply&& after_apply) {
  std::string error;
  batch.clear();
  for (NodeId i = 0; i < n; ++i) batch.add_node();
  ASSERT_TRUE(service.apply(batch, &error)) << error;
  ASSERT_TRUE(after_apply());
  for (const bool add : {true, false}) {
    batch.clear();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (add) batch.add_edge(u, v);
        else batch.remove_edge(u, v);
        if (batch.size() >= 128) {
          ASSERT_TRUE(service.apply(batch, &error)) << error;
          ASSERT_TRUE(after_apply());
          batch.clear();
        }
      }
    }
    ASSERT_TRUE(service.apply(batch, &error)) << error;
    ASSERT_TRUE(after_apply());
  }
}

TEST(ServiceAlloc, SteadyStateIngestIsAllocationFree) {
  const NodeId n = 64;
  TempDir dir("steady");
  service::ServiceConfig config;
  config.dir = dir.path;
  config.priority_seed = 7;
  // Steady state by construction: the segment never fills mid-measurement
  // and checkpoints only happen when asked.
  config.segment_bytes = 1ULL << 30;
  config.checkpoint_interval_ops = 0;
  std::string error;
  auto service = service::MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;

  // Seed the id space (toggles only ever reference existing ids, so no
  // apply grows the node tables past warm-up sizes) and warm every
  // capacity to its maximum at this n.
  core::Batch batch;
  warm_to_capacity(*service, batch, n, [] { return true; });

  util::Rng rng(11);
  // Short random warm-up for the remaining pattern-dependent scratch
  // (visited stamps, changed buffer, WAL record buffer at 1-op size).
  (void)toggles(*service, batch, n, 20'000, rng, error);

  const std::uint64_t allocs = toggles(*service, batch, n, 20'000, rng, error);
  EXPECT_EQ(allocs, 0U) << "steady-state service ingest must not allocate"
                        << (error.empty() ? "" : ("; last error: " + error));
  service->engine().verify();
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(ServiceAlloc, ReplicatedIngestShipAndTailAreAllocationFree) {
  // Leader + LogShipper over a DirectTransport + FollowerService, the way a
  // caught-up replica runs: after warm-up, apply → drain → poll allocates
  // nothing on either end.
  const NodeId n = 64;
  TempDir leader_dir("repl_leader");
  TempDir follower_dir("repl_follower");
  service::ServiceConfig config;
  config.dir = leader_dir.path;
  config.priority_seed = 7;
  config.segment_bytes = 1ULL << 30;  // no rotation mid-measurement
  config.checkpoint_interval_ops = 0;
  std::string error;
  auto leader = service::MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  service::FollowerOptions follower_options;
  follower_options.priority_seed = 7;
  auto follower =
      service::FollowerService::open(follower_dir.path, follower_options, &error);
  ASSERT_TRUE(follower.has_value()) << error;
  service::DirectTransport transport(&*follower);
  service::LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  const auto replicate = [&] { return shipper.drain(&error) && follower->poll(&error); };

  core::Batch batch;
  warm_to_capacity(*leader, batch, n, replicate);
  util::Rng rng(13);
  (void)toggles(*leader, batch, n, 20'000, rng, error, replicate);

  const std::uint64_t allocs = toggles(*leader, batch, n, 20'000, rng, error, replicate);
  EXPECT_EQ(allocs, 0U) << "steady-state ship + tail must not allocate"
                        << (error.empty() ? "" : ("; last error: " + error));
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  EXPECT_TRUE(follower->engine().membership() == leader->engine().membership());
  follower->engine().verify();
  ASSERT_TRUE(leader->close(&error)) << error;
}

TEST(ServiceAlloc, ColdServiceEventuallyStopsAllocating) {
  // From a cold open the service may allocate (vector growth, rehashes,
  // first WAL buffer sizing) but the rate must hit exactly zero.
  const NodeId n = 32;
  TempDir dir("cold");
  service::ServiceConfig config;
  config.dir = dir.path;
  config.priority_seed = 21;
  config.segment_bytes = 1ULL << 30;
  // Group fsyncs so the window loop measures allocation convergence, not
  // disk latency; sync() allocates nothing under any policy.
  config.fsync = service::FsyncPolicy::kInterval;
  config.fsync_interval_records = 256;
  std::string error;
  auto service = service::MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;
  core::Batch batch;
  for (NodeId i = 0; i < n; ++i) batch.add_node();
  ASSERT_TRUE(service->apply(batch, &error)) << error;

  util::Rng rng(17);
  std::uint64_t last = ~0ULL;
  bool reached_zero = false;
  for (int window = 0; window < 12; ++window) {
    const std::uint64_t allocs = toggles(*service, batch, n, 10'000, rng, error);
    if (allocs == 0) reached_zero = true;
    last = allocs;
  }
  EXPECT_TRUE(reached_zero);
  EXPECT_EQ(last, 0U) << (error.empty() ? "" : error);
  service->engine().verify();
  ASSERT_TRUE(service->close(&error)) << error;
}

}  // namespace
