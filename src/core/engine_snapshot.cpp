#include "core/engine_snapshot.hpp"

#include <vector>

#include "graph/snapshot.hpp"

namespace dmis::core {

namespace {

/// The engine state a snapshot persists, as views into the engine: the
/// priority keys clamped to the graph's id bound (keys pinned beyond the id
/// space — tests can set_key arbitrary ids — have no node to describe, and
/// the writer zero-pads anything shorter), the membership bytes, and the
/// priority seed + generator state (which makes a warm restart a true
/// continuation: future draws match the saved process exactly).
[[nodiscard]] graph::EngineStateView state_view(const PriorityMap& priorities,
                                                const graph::DynamicGraph& g,
                                                std::span<const std::uint8_t> membership) {
  graph::EngineStateView state;
  const auto keys = priorities.raw_keys();
  state.keys = keys.size() > g.id_bound() ? keys.first(g.id_bound()) : keys;
  state.membership = membership;
  state.priority_seed = priorities.seed();
  const util::Rng::State rng = priorities.rng_state();
  for (int w = 0; w < 4; ++w) state.rng_state[w] = rng[static_cast<std::size_t>(w)];
  return state;
}

/// The sequential engines keep membership as one id-indexed byte array.
template <typename Engine>
[[nodiscard]] graph::EngineStateView state_view(const Engine& engine) {
  return state_view(engine.priorities(), engine.graph(), engine.membership());
}

/// Shared tail for the distributed drivers: their membership lives in the
/// protocol's per-node state, so it is materialized into one byte array in
/// the snapshot's id-indexed shape.
template <typename Driver>
bool save_driver(const Driver& engine, const std::string& path, std::string* error) {
  const graph::DynamicGraph& g = engine.graph();
  std::vector<std::uint8_t> membership(g.id_bound(), 0);
  g.for_each_node(
      [&](graph::NodeId v) { membership[v] = engine.in_mis(v) ? 1 : 0; });
  return graph::save_snapshot(g, state_view(engine.priorities(), g, membership), path,
                              error);
}

}  // namespace

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   std::string* error) {
  return save_snapshot(engine, path, util::FileFactory{}, error);
}

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error) {
  return graph::save_snapshot(engine.graph(), state_view(engine), path, factory, error);
}

bool save_snapshot(const DistMis& engine, const std::string& path, std::string* error) {
  return save_driver(engine, path, error);
}

bool save_snapshot(const AsyncMis& engine, const std::string& path, std::string* error) {
  return save_driver(engine, path, error);
}

bool save_snapshot(const LockFreeEngine& engine, const std::string& path,
                   std::string* error) {
  return graph::save_snapshot(engine.graph(), state_view(engine), path, error);
}

bool save_snapshot_sharded(const CascadeEngine& engine, const std::string& path,
                           std::uint32_t shard_count, std::string* error) {
  return graph::save_snapshot_sharded(engine.graph(), state_view(engine), path,
                                      shard_count, error);
}

bool save_snapshot_sharded(const LockFreeEngine& engine, const std::string& path,
                           std::uint32_t shard_count, std::string* error) {
  return graph::save_snapshot_sharded(engine.graph(), state_view(engine), path,
                                      shard_count, error);
}

}  // namespace dmis::core
