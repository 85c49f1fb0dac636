// E2 — Corollary 6: the direct implementation of the template needs, in
// expectation, a single adjustment and a single round — in the synchronous
// model (rounds = template levels) and the asynchronous model (rounds =
// longest causal chain).
//
// Sync side: E[levels] from the literal template. Async side: causal depth
// measured on the event-driven simulator under random delays. Both must
// stay O(1) as n grows.
//
// Besides the printed table, every row is appended to a machine-readable
// JSON file (default BENCH_corollary6.json, --json to override, empty string
// to disable).
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/async_mis.hpp"
#include "core/template_engine.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dmis;
using util::OnlineStats;

struct JsonRow {
  std::string model;
  std::uint64_t n = 0;
  std::uint64_t trials = 0;
  double rounds = 0, adjustments = 0;
};

bool write_json(const std::string& path, const std::vector<JsonRow>& rows) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"corollary6\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"n\": %llu, \"trials\": %llu, "
                 "\"rounds\": %.4f, \"adjustments\": %.4f}%s\n",
                 r.model.c_str(), static_cast<unsigned long long>(r.n),
                 static_cast<unsigned long long>(r.trials), r.rounds, r.adjustments,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto trials = static_cast<int>(cli.flag_int("trials", 200, "trials per row"));
  const auto max_delay =
      static_cast<std::uint64_t>(cli.flag_int("max_delay", 8, "async max delay"));
  const auto json_path = cli.flag_string("json", "BENCH_corollary6.json",
                                         "machine-readable output (empty disables)");
  cli.finish();
  std::vector<JsonRow> json_rows;

  std::cout << "# E2 — Corollary 6: direct implementation — one adjustment, one "
               "round in expectation\n";

  util::Table table({"model", "n", "E[rounds] ± 95%", "E[adjustments] ± 95%"});

  for (const graph::NodeId n : {100U, 400U, 1600U}) {
    util::Rng rng(n);
    const auto g = graph::random_avg_degree(n, 8.0, rng);

    // Synchronous direct implementation: rounds = number of template levels
    // (level i's updates happen in parallel in round i).
    OnlineStats sync_rounds;
    OnlineStats sync_adjustments;
    for (int t = 0; t < trials; ++t) {
      core::TemplateEngine engine(g, 31 + static_cast<std::uint64_t>(t) * 7);
      const graph::NodeId u = static_cast<graph::NodeId>(t) % n;
      const graph::NodeId v = (u + 1 + static_cast<graph::NodeId>(t / n)) % n;
      if (u == v) continue;
      const auto rep = engine.graph().has_edge(u, v) ? engine.remove_edge(u, v)
                                                     : engine.add_edge(u, v);
      sync_rounds.add(static_cast<double>(rep.levels));
      sync_adjustments.add(static_cast<double>(rep.adjustments));
    }
    json_rows.push_back({"sync", n, sync_rounds.count(), sync_rounds.mean(),
                         sync_adjustments.mean()});
    table.row()
        .cell("sync (template levels)")
        .cell(static_cast<std::uint64_t>(n))
        .cell_pm(sync_rounds.mean(), sync_rounds.ci95())
        .cell_pm(sync_adjustments.mean(), sync_adjustments.ci95());

    // Asynchronous direct implementation under random delays.
    OnlineStats async_rounds;
    OnlineStats async_adjustments;
    for (int t = 0; t < trials; ++t) {
      core::AsyncMis mis(core::EngineCore(g, 57 + static_cast<std::uint64_t>(t) * 11),
                         991 + static_cast<std::uint64_t>(t), max_delay);
      const graph::NodeId u = static_cast<graph::NodeId>(t * 3) % n;
      const graph::NodeId v = (u + 2) % n;
      if (u == v) continue;
      const auto result = mis.graph().has_edge(u, v) ? mis.remove_edge(u, v)
                                                     : mis.insert_edge(u, v);
      async_rounds.add(static_cast<double>(result.cost.rounds));
      async_adjustments.add(static_cast<double>(result.cost.adjustments));
    }
    json_rows.push_back({"async", n, async_rounds.count(), async_rounds.mean(),
                         async_adjustments.mean()});
    table.row()
        .cell("async (causal depth)")
        .cell(static_cast<std::uint64_t>(n))
        .cell_pm(async_rounds.mean(), async_rounds.ci95())
        .cell_pm(async_adjustments.mean(), async_adjustments.ci95());
  }

  table.print(std::cout);
  std::cout << "\n(async depth includes the constant edge-introduction handshake; "
               "the point is that neither column grows with n)\n";
  return write_json(json_path, json_rows) ? 0 : 1;
}
