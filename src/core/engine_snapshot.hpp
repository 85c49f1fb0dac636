// Engine-state snapshot writers — the core-side half of the version-2
// snapshot format (graph/snapshot.hpp, docs/FORMATS.md).
//
// A v2 snapshot persists the graph plus the two arrays that, by the greedy
// fixpoint property (paper §3), completely determine an engine: the per-node
// priority keys and the MIS membership. Every engine exposes exactly that
// triple — graph(), priorities(), membership() — so one state_view serves
// them all and hands it to graph::save_snapshot; the matching read side is
// EngineCore's snapshot constructors (core/engine_core.hpp) with
// graph::SnapshotLoad::kWarm (or kAuto on a v2 file), which restart without
// recomputing the greedy MIS. dmis_snapshot `save --engine` / `load --warm`
// are the operator entry points, and `verify` deep-checks that the
// persisted membership is exactly the greedy fixpoint of the persisted keys.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "util/fault_file.hpp"  // util::FileFactory

namespace dmis::core {

/// The state a snapshot persists, as views into an engine: the priority
/// keys clamped to the graph's id bound (keys pinned beyond the id space —
/// tests can set_key arbitrary ids — have no node to describe, and the
/// writer zero-pads anything shorter), the membership bytes, and the
/// priority seed + generator state (which makes a warm restart a true
/// continuation: future draws match the saved process exactly).
[[nodiscard]] graph::EngineStateView state_view(const graph::DynamicGraph& g,
                                                const PriorityMap& priorities,
                                                std::span<const std::uint8_t> membership);

/// Anything with the engine triple: every engine in this repository.
template <typename Engine>
concept SnapshotSource = requires(const Engine& e) {
  e.graph();
  e.priorities();
  e.membership();
};

/// Write `engine`'s graph + engine state as a version-2 snapshot. Returns
/// false (with *error) on I/O failure. The engine must be quiescent (no
/// batch repair in flight); every engine in this repository is between
/// public calls. With a non-empty `factory`, all file bytes route through
/// it (the Checkpointer's fault-injection seam — graph/snapshot.hpp).
template <SnapshotSource Engine>
bool save_snapshot(const Engine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error = nullptr) {
  return graph::save_snapshot(
      engine.graph(), state_view(engine.graph(), engine.priorities(), engine.membership()),
      path, factory, error);
}
template <SnapshotSource Engine>
bool save_snapshot(const Engine& engine, const std::string& path,
                   std::string* error = nullptr) {
  return save_snapshot(engine, path, util::FileFactory{}, error);
}

/// Version-3 writer: identical engine state plus the shard table that lets
/// S loaders adopt disjoint id ranges during a warm start (docs/FORMATS.md).
/// `shard_count` is clamped to [1, graph::kSnapshotMaxShards].
template <SnapshotSource Engine>
bool save_snapshot_sharded(const Engine& engine, const std::string& path,
                           std::uint32_t shard_count, std::string* error = nullptr) {
  return graph::save_snapshot_sharded(
      engine.graph(), state_view(engine.graph(), engine.priorities(), engine.membership()),
      path, shard_count, error);
}

}  // namespace dmis::core
