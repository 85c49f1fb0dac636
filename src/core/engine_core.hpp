// EngineCore — the start state every MIS engine is built from.
//
// The maintained MIS is the unique greedy fixpoint of (graph, priority
// keys) (paper §3), so every engine in this repository — CascadeEngine,
// LockFreeEngine, TemplateEngine and the simulated DistMis / AsyncMis —
// starts from the same triple: the graph, the PriorityMap and the
// Membership array (plus its cardinality). EngineCore builds that triple
// once, from every source that exists: a seed alone (empty graph), an
// in-memory graph, a snapshot (materialized or borrowed), or a
// caller-supplied graph plus the snapshot it came from. Each engine then
// has one constructor taking an EngineCore and builds only its private
// mirrors, so a new source or load mode lands here, once.
//
// Load modes (graph::SnapshotLoad, resolved here and nowhere else):
//   * kAuto (default) — a snapshot carrying engine state (v2/v3)
//     warm-starts: the persisted priority keys, RNG state and membership
//     are bulk-copied and the greedy recompute is skipped entirely (zero
//     priority draws, zero cascade work; the persisted membership is the
//     unique greedy fixpoint of the persisted keys, which dmis_snapshot
//     verify deep-checks). A graph-only (v1) snapshot cold-starts.
//   * kCold — fresh priority draws from `priority_seed` and a greedy
//     recompute, whatever the file carries (the v1 path).
//   * kColdKeys — adopt the persisted keys and RNG state but recompute the
//     MIS: the verification twin of kWarm, equal to it bit for bit (the
//     snapshot matrix test pins this under continued churn).
//   * kWarm — as kAuto on an engine-state file.
// kWarm and kColdKeys on a graph-only file are caller bugs and abort with
// "graph-only". Whenever the keys are adopted, so are the persisted seed
// and generator state: future draws continue the saved process exactly.
// Otherwise `priority_seed` seeds the draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/membership.hpp"
#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"

namespace dmis::core {

struct EngineCore {
  /// Empty graph; priorities drawn from `priority_seed` as nodes arrive.
  explicit EngineCore(std::uint64_t priority_seed);

  /// An existing graph; the initial MIS is computed from scratch (the
  /// initial computation is not an "update" and produces no report).
  EngineCore(const graph::DynamicGraph& g, std::uint64_t priority_seed);
  EngineCore(graph::DynamicGraph&& g, std::uint64_t priority_seed);

  /// A binary snapshot (graph/snapshot.hpp), materialized through
  /// DynamicGraph::load's bulk path.
  EngineCore(const graph::Snapshot& snapshot, std::uint64_t priority_seed,
             graph::SnapshotLoad mode = graph::SnapshotLoad::kAuto);

  /// As above, but the graph is supplied by the caller — pre-materialized
  /// with DynamicGraph::load or borrowed with DynamicGraph::borrow — while
  /// `snapshot` provides the engine-state sections. RecoveryManager uses
  /// this split to time graph acquisition separately from engine warm-up.
  /// `snapshot` must be the snapshot the graph came from.
  EngineCore(graph::DynamicGraph&& g, const graph::Snapshot& snapshot,
             std::uint64_t priority_seed,
             graph::SnapshotLoad mode = graph::SnapshotLoad::kAuto);

  /// Borrowed snapshot: the graph reads the mapping in place (zero-copy;
  /// DynamicGraph::borrow), so a warm start is ~O(id_bound) bulk copies
  /// instead of O(n + m) materialization, and clean graph regions page in
  /// on demand. The graph shares ownership of the snapshot.
  EngineCore(std::shared_ptr<const graph::Snapshot> snapshot,
             std::uint64_t priority_seed,
             graph::SnapshotLoad mode = graph::SnapshotLoad::kAuto);

  graph::DynamicGraph graph;
  PriorityMap priorities;
  Membership membership;  ///< the greedy fixpoint of (graph, priorities)
  std::size_t mis_size = 0;
};

}  // namespace dmis::core
