#include "core/engine_snapshot.hpp"

namespace dmis::core {

graph::EngineStateView state_view(const graph::DynamicGraph& g,
                                  const PriorityMap& priorities,
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

}  // namespace dmis::core
