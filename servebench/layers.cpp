#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "core/batch.hpp"
#include "core/greedy_mis.hpp"
#include "util/fs.hpp"

namespace servebench {

namespace fs = std::filesystem;
using dmis::core::CascadeEngine;

EngineState capture_state(const CascadeEngine& engine, std::uint64_t lsn) {
  EngineState s;
  s.lsn = lsn;
  s.membership = engine.membership();
  s.rng = engine.priorities().rng_state();
  return s;
}

namespace {

/// Membership vectors may differ in trailing dead ids; compare as sets.
bool same_membership(const dmis::core::Membership& a, const dmis::core::Membership& b) {
  const std::size_t common = std::min(a.size(), b.size());
  if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(common), b.begin()))
    return false;
  const auto all_out = [](const dmis::core::Membership& m, std::size_t from) {
    return std::all_of(m.begin() + static_cast<std::ptrdiff_t>(from), m.end(),
                       [](std::uint8_t x) { return x == 0; });
  };
  return all_out(a, common) && all_out(b, common);
}

class DelayedSyncFile final : public dmis::util::WritableFile {
 public:
  DelayedSyncFile(std::unique_ptr<dmis::util::WritableFile> inner, double delay_us)
      : inner_(std::move(inner)), delay_(std::chrono::nanoseconds(
                                      static_cast<std::int64_t>(delay_us * 1e3))) {}
  bool write(const void* data, std::size_t bytes, std::string* error) override {
    return inner_->write(data, bytes, error);
  }
  bool sync(std::string* error) override {
    // Spin rather than sleep: a sleep's wake-up latency would add an
    // unknown amount on top of the intended delay.
    const Clock::time_point until = Clock::now() + delay_;
    while (Clock::now() < until) {
    }
    return inner_->sync(error);
  }
  bool close(std::string* error) override { return inner_->close(error); }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }
  [[nodiscard]] const std::string& path() const noexcept override { return inner_->path(); }

 private:
  std::unique_ptr<dmis::util::WritableFile> inner_;
  Clock::duration delay_;
};

}  // namespace

bool same_state(const CascadeEngine& engine, std::uint64_t lsn, const EngineState& want) {
  return lsn == want.lsn && engine.priorities().rng_state() == want.rng &&
         same_membership(engine.membership(), want.membership);
}

bool oracle_check(const CascadeEngine& engine, std::string* why) {
  engine.verify();
  dmis::core::PriorityMap priorities = engine.priorities();
  const dmis::core::Membership oracle = dmis::core::greedy_mis(engine.graph(), priorities);
  if (!same_membership(oracle, engine.membership())) {
    *why = "service membership differs from greedy_mis on its own graph";
    return false;
  }
  return true;
}

bool history_independence_check(const CascadeEngine& engine, const WorkloadSpec& spec,
                                const std::vector<std::unique_ptr<OpSource>>& sources,
                                std::uint64_t priority_seed, std::string* why) {
  dmis::graph::DynamicGraph expected(spec.n);
  std::size_t edges = 0;
  for (const auto& source : sources) {
    const auto* toggles = dynamic_cast<const ToggleSource*>(source.get());
    if (toggles == nullptr) {
      *why = "history-independence check needs toggle sources";
      return false;
    }
    for (const std::uint64_t key : toggles->present()) {
      (void)expected.add_edge(static_cast<NodeId>(key >> 32),
                              static_cast<NodeId>(key & 0xffffffffU));
      ++edges;
    }
  }
  const dmis::graph::DynamicGraph& served = engine.graph();
  if (served.node_count() != expected.node_count() || served.edge_count() != edges) {
    *why = "service graph differs from the producers' final edge sets";
    return false;
  }
  bool same_edges = true;
  expected.for_each_edge([&](NodeId u, NodeId v) { same_edges &= served.has_edge(u, v); });
  if (!same_edges) {
    *why = "service graph differs from the producers' final edge sets";
    return false;
  }
  const CascadeEngine scratch(std::move(expected), priority_seed);
  for (NodeId v = 0; v < spec.n; ++v) {
    if (scratch.priorities().key(v) != engine.priorities().key(v)) {
      *why = "from-scratch engine drew different priority keys";
      return false;
    }
  }
  if (!same_membership(scratch.membership(), engine.membership())) {
    *why = "final membership depends on history (differs from a from-scratch engine)";
    return false;
  }
  return true;
}

dmis::service::RecoveryReport RecoveryRuns::median_report() const {
  if (seconds.empty()) return {};
  std::vector<std::size_t> order(seconds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return seconds[a] < seconds[b]; });
  return reports[order[(order.size() - 1) / 2]];
}

void measure_recovery(const std::string& dir, std::uint64_t priority_seed, int min_reps,
                      int max_reps, double budget_s, const EngineState& want,
                      RecoveryRuns& runs) {
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < max_reps &&
                  (r < min_reps || seconds_between(start, Clock::now()) < budget_s);
       ++r) {
    dmis::service::RecoveryOptions options;
    options.priority_seed = priority_seed;
    dmis::service::RecoveryManager manager(dir, options);
    dmis::service::RecoveryReport report;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    std::optional<CascadeEngine> engine = manager.recover(&report, &error);
    runs.seconds.push_back(seconds_between(t0, Clock::now()));
    runs.reports.push_back(report);
    if (!engine.has_value()) {
      runs.matches = false;
      runs.why = "recovery failed: " + error;
      return;
    }
    if (!same_state(*engine, report.recovered_lsn, want)) {
      runs.matches = false;
      runs.why = "recovered engine differs from the crashed leader";
    }
  }
}

LayerReplay replay_wal(const WorkloadSpec& spec, const IngestResult& run,
                       const std::string& dir, const dmis::util::FileFactory& file_factory) {
  LayerReplay out;
  std::string error;
  fs::remove_all(dir);
  if (!dmis::util::ensure_dir(dir, &error)) {
    out.matches = false;
    out.why = error;
    return out;
  }
  dmis::service::WalWriterOptions options;
  options.fsync = spec.fsync;
  options.segment_bytes = kSegmentBytes;
  options.file_factory = file_factory;
  dmis::service::WalWriter wal;
  if (!wal.open(dir, 1, 0, options, &error)) {
    out.matches = false;
    out.why = error;
    return out;
  }
  dmis::core::Batch batch;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < run.batch_ends.size(); ++b) {
    batch.clear();
    append_ops(batch, run.recorded, begin, run.batch_ends[b]);
    begin = run.batch_ends[b];
    const std::uint64_t bytes_before = wal.bytes_appended();
    const Clock::time_point t0 = Clock::now();
    const bool ok = wal.append(batch, &error);
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    if (!ok) {
      out.matches = false;
      out.why = error;
      return out;
    }
    if (!run.spans[b].in_window) continue;
    out.call_us.push_back(us);
    out.busy_s += us * 1e-6;
    ++out.records;
    out.bytes += wal.bytes_appended() - bytes_before;
  }
  (void)wal.close(&error);
  fs::remove_all(dir);
  return out;
}

LayerReplay replay_engine(const IngestResult& run, const std::string& dir,
                          std::uint64_t priority_seed, bool borrow,
                          const EngineState& want) {
  LayerReplay out;
  dmis::service::RecoveryOptions options;
  options.priority_seed = priority_seed;
  options.borrow = borrow;
  dmis::service::RecoveryManager manager(dir, options);
  dmis::service::RecoveryReport report;
  std::string error;
  std::optional<CascadeEngine> engine = manager.recover(&report, &error);
  if (!engine.has_value()) {
    out.matches = false;
    out.why = "replay engine open failed: " + error;
    return out;
  }
  dmis::core::Batch batch;
  dmis::core::BatchResult result;
  std::size_t begin = 0;
  std::uint64_t lsn = report.recovered_lsn;
  for (std::size_t b = 0; b < run.batch_ends.size(); ++b) {
    batch.clear();
    append_ops(batch, run.recorded, begin, run.batch_ends[b]);
    begin = run.batch_ends[b];
    const Clock::time_point t0 = Clock::now();
    dmis::core::apply_batch(*engine, batch, result);
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    lsn += batch.size();
    if (!run.spans[b].in_window) continue;
    out.call_us.push_back(us);
    out.busy_s += us * 1e-6;
    out.evaluated += result.report.evaluated;
    out.adjustments += result.report.adjustments;
  }
  if (!same_state(*engine, lsn, want)) {
    out.matches = false;
    out.why = std::string(borrow ? "borrowed" : "materialized") +
              " replay engine differs from the service";
  }
  return out;
}

dmis::util::FileFactory delayed_sync_factory(double delay_us) {
  return [delay_us](const std::string& path,
                    std::string* error) -> std::unique_ptr<dmis::util::WritableFile> {
    std::unique_ptr<dmis::util::WritableFile> inner = dmis::util::open_writable(path, error);
    if (inner == nullptr) return nullptr;
    return std::make_unique<DelayedSyncFile>(std::move(inner), delay_us);
  };
}

}  // namespace servebench
