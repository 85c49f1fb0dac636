// Batch-repair throughput of core::apply_batch (one cascade per batch, the
// path MisService and recovery replay run), swept over n × batch size.
//
// For every (n, batch_size) cell a churn-batch sequence is replayed from the
// initial graph through a CascadeEngine. Only apply_batch is timed;
// generation is outside the clock. Results go to
// BENCH_batch_throughput.json; the JSON records hardware_concurrency so a
// row can be read against the host it was taken on.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

struct Result {
  NodeId n = 0;
  std::size_t batch_size = 0;
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  double seconds = 0;
  double updates_per_sec = 0;
  double adjustments_per_op = 0;
};

/// Edge-toggle churn on a warm graph (the regime the single-update latency
/// bench calls "churn"); node ops are excluded so the engine's id space
/// stays identical to the generator's.
std::vector<core::Batch> make_batches(const graph::DynamicGraph& g,
                                      std::size_t batch_size, std::uint64_t ops,
                                      std::uint64_t seed) {
  workload::ChurnConfig config;
  config.p_add_edge = 0.5;
  config.p_remove_edge = 0.5;
  config.p_add_node = 0.0;
  config.p_remove_node = 0.0;
  workload::ChurnGenerator generator(g, config, seed);
  return workload::churn_batches(generator, ops / batch_size, batch_size);
}

Result run_case(const graph::DynamicGraph& g, std::uint64_t seed, std::size_t batch_size,
                const std::vector<core::Batch>& batches) {
  Result r;
  r.n = static_cast<NodeId>(g.id_bound());
  r.batch_size = batch_size;
  core::CascadeEngine engine(g, seed);
  std::uint64_t adjustments = 0;
  const auto t0 = Clock::now();
  for (const core::Batch& batch : batches) {
    adjustments += core::apply_batch(engine, batch).report.adjustments;
    r.ops += batch.size();
  }
  const auto t1 = Clock::now();
  r.batches = batches.size();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.updates_per_sec = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
  r.adjustments_per_op =
      r.ops > 0 ? static_cast<double>(adjustments) / static_cast<double>(r.ops) : 0;
  return r;
}

bool validate(const std::vector<Result>& results) {
  // Self-check behind --validate: the same batch_throughput rules
  // scripts/validate_bench.py applies to the emitted JSON, enforced on the
  // in-memory rows before writing.
  if (results.empty()) {
    std::fprintf(stderr, "validate: no results\n");
    return false;
  }
  for (const Result& r : results) {
    const bool ok = r.n >= 2 && r.batch_size >= 1 && r.ops > 0 && r.batches > 0 &&
                    r.seconds >= 0 && r.updates_per_sec > 0 &&
                    r.adjustments_per_op >= 0;
    if (!ok) {
      std::fprintf(stderr, "validate: malformed row (n=%u, batch=%zu)\n", r.n,
                   r.batch_size);
      return false;
    }
  }
  return true;
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                std::uint64_t ops, std::uint64_t seed, double deg) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"batch_throughput\",\n");
  std::fprintf(f,
               "  \"config\": {\"ops_per_cell\": %llu, \"seed\": %llu, "
               "\"avg_degree\": %.1f, \"hardware_concurrency\": %u},\n",
               static_cast<unsigned long long>(ops),
               static_cast<unsigned long long>(seed), deg,
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"n\": %u, \"batch_size\": %zu, \"ops\": %llu, "
                 "\"batches\": %llu, \"seconds\": %.6f, \"updates_per_sec\": %.0f, "
                 "\"adjustments_per_op\": %.4f}%s\n",
                 r.n, r.batch_size, static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.batches), r.seconds,
                 r.updates_per_sec, r.adjustments_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 100'000;
  std::uint64_t seed = 42;
  double deg = 8.0;
  std::vector<NodeId> sizes = {100'000, 1'000'000};
  std::vector<std::size_t> batch_sizes = {16, 256, 4096};
  std::string out = "BENCH_batch_throughput.json";
  bool validate_flag = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    const auto parse_list = [](const char* s, auto& dst, unsigned long min_value) {
      dst.clear();
      while (*s != '\0') {
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(s, &end, 10);
        if (end == s || parsed < min_value) return false;
        dst.push_back(static_cast<typename std::remove_reference_t<decltype(dst)>::value_type>(parsed));
        s = *end == ',' ? end + 1 : end;
      }
      return !dst.empty();
    };
    if (arg == "--ops") ops = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--deg") deg = std::strtod(next(), nullptr);
    else if (arg == "--out") out = next();
    else if (arg == "--validate") validate_flag = true;
    // A node count below 2 would spin the churn generator forever (no edge
    // to toggle), hence the floor on --sizes.
    else if (arg == "--sizes" && parse_list(next(), sizes, 2)) continue;
    else if (arg == "--batch-sizes" && parse_list(next(), batch_sizes, 1)) continue;
    else {
      std::fprintf(stderr,
                   "usage: %s [--ops N] [--seed S] [--deg D] [--sizes a,b] "
                   "[--batch-sizes a,b] [--out F] [--validate]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<Result> results;
  for (const NodeId n : sizes) {
    util::Rng graph_rng(seed);
    const auto g = graph::random_avg_degree(n, deg, graph_rng);
    for (const std::size_t batch_size : batch_sizes) {
      const auto batches = make_batches(g, batch_size, ops, seed * 31 + batch_size);

      {
        // Untimed warmup: the timed engine then recycles its arrays from the
        // allocator instead of paying every fresh-page fault on the clock.
        core::CascadeEngine warm(g, seed);
        for (const core::Batch& batch : batches) (void)core::apply_batch(warm, batch);
      }
      const Result r = run_case(g, seed, batch_size, batches);
      results.push_back(r);
      std::printf("n=%-8u batch=%-5zu %12.0f upd/s  adj/op=%.3f\n", n, batch_size,
                  r.updates_per_sec, r.adjustments_per_op);
    }
  }
  if (validate_flag && !validate(results)) return 1;
  return write_json(out, results, ops, seed, deg) ? 0 : 1;
}
