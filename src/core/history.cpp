#include "core/history.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/async_mis.hpp"
#include "core/cascade_engine.hpp"
#include "core/template_engine.hpp"

namespace dmis::core {

std::vector<bool> replay_membership(const workload::Trace& trace, std::uint64_t seed,
                                    EnginePath path) {
  switch (path) {
    case EnginePath::kCascade: {
      CascadeEngine engine(seed);
      workload::replay(engine, trace);
      std::vector<bool> out(engine.graph().id_bound(), false);
      for (const NodeId v : engine.graph().nodes()) out[v] = engine.in_mis(v);
      return out;
    }
    case EnginePath::kTemplate: {
      TemplateEngine engine(seed);
      workload::replay(engine, trace);
      std::vector<bool> out(engine.graph().id_bound(), false);
      for (const NodeId v : engine.graph().nodes()) out[v] = engine.in_mis(v);
      return out;
    }
    case EnginePath::kDistributedSync: {
      DistMis engine(seed);
      workload::replay(engine, trace);
      std::vector<bool> out(engine.graph().id_bound(), false);
      for (const NodeId v : engine.graph().nodes()) out[v] = engine.in_mis(v);
      return out;
    }
    case EnginePath::kDistributedAsync: {
      // Scheduler seed derived from the priority seed: delays vary per trial.
      AsyncMis engine(EngineCore(seed), seed ^ 0x5bf0'3635'ce88'9facULL);
      workload::replay(engine, trace);
      std::vector<bool> out(engine.graph().id_bound(), false);
      for (const NodeId v : engine.graph().nodes()) out[v] = engine.in_mis(v);
      return out;
    }
  }
  DMIS_ASSERT_MSG(false, "unknown engine path");
  return {};
}

OutputDistribution collect_distribution(const workload::Trace& trace,
                                        std::uint64_t base_seed, std::uint64_t trials,
                                        EnginePath path) {
  OutputDistribution dist;
  dist.trials = trials;
  for (std::uint64_t t = 0; t < trials; ++t) {
    const std::vector<bool> membership = replay_membership(trace, base_seed + t, path);
    std::int64_t size = 0;
    for (NodeId v = 0; v < membership.size(); ++v) {
      if (!membership[v]) continue;
      ++size;
      ++dist.member_count[v];
    }
    dist.mis_size.add(size);
  }
  return dist;
}

double max_frequency_gap(const OutputDistribution& a, const OutputDistribution& b) {
  std::set<NodeId> support;
  for (const auto& [v, _] : a.member_count) support.insert(v);
  for (const auto& [v, _] : b.member_count) support.insert(v);
  double gap = 0.0;
  for (const NodeId v : support)
    gap = std::max(gap, std::fabs(a.member_frequency(v) - b.member_frequency(v)));
  return gap;
}

}  // namespace dmis::core
