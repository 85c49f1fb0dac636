#include "core/engine_core.hpp"

#include <algorithm>
#include <utility>

#include "core/greedy_mis.hpp"
#include "graph/snapshot.hpp"
#include "util/assert.hpp"

namespace dmis::core {

namespace {

/// The cold-start tail: the greedy MIS of the core's graph under its
/// priorities (drawing a key for every node that has none yet).
void compute_greedy(EngineCore& core) {
  core.membership = greedy_mis(core.graph, core.priorities);
  core.mis_size =
      static_cast<std::size_t>(std::count(core.membership.begin(), core.membership.end(), 1));
}

}  // namespace

EngineCore::EngineCore(std::uint64_t priority_seed) : priorities(priority_seed) {}

EngineCore::EngineCore(const graph::DynamicGraph& g, std::uint64_t priority_seed)
    : EngineCore(graph::DynamicGraph(g), priority_seed) {}

EngineCore::EngineCore(graph::DynamicGraph&& g, std::uint64_t priority_seed)
    : graph(std::move(g)), priorities(priority_seed) {
  compute_greedy(*this);
}

EngineCore::EngineCore(const graph::Snapshot& snapshot, std::uint64_t priority_seed,
                       graph::SnapshotLoad mode)
    : EngineCore(graph::DynamicGraph::load(snapshot), snapshot, priority_seed, mode) {}

EngineCore::EngineCore(std::shared_ptr<const graph::Snapshot> snapshot,
                       std::uint64_t priority_seed, graph::SnapshotLoad mode)
    // `*snapshot` stays valid throughout: the parameter keeps it alive, and
    // the borrowed graph holds its own reference afterwards.
    : EngineCore(graph::DynamicGraph::borrow(snapshot), *snapshot, priority_seed, mode) {}

EngineCore::EngineCore(graph::DynamicGraph&& g, const graph::Snapshot& snapshot,
                       std::uint64_t priority_seed, graph::SnapshotLoad mode)
    : graph(std::move(g)), priorities(priority_seed) {
  const bool warm = graph::snapshot_load_warm(mode, snapshot.has_engine_state());
  if (warm || mode == graph::SnapshotLoad::kColdKeys) {
    DMIS_ASSERT_MSG(snapshot.has_engine_state(),
                    "persisted keys requested from a graph-only (v1) snapshot");
    priorities.bulk_load(snapshot.priority_keys(), snapshot.engine_ext().rng_state,
                         snapshot.priority_seed());
  }
  if (warm) {
    // Bulk copies only: no priority hashing, no greedy pass, no cascade.
    const auto member = snapshot.membership_bytes();
    membership.assign(member.begin(), member.end());
    mis_size = static_cast<std::size_t>(snapshot.mis_size());  // validated on open
    return;
  }
  // Cold, or kColdKeys: with the persisted permutation pinned, greedy_mis's
  // ensure() calls see every id assigned and draw nothing, so a kColdKeys
  // core and a warm twin share both the key array and the future RNG stream.
  compute_greedy(*this);
}

}  // namespace dmis::core
