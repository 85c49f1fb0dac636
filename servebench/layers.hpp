// Everything that runs after an ingest phase, outside its timed window:
// correctness checks, crash recovery, follower promotion, and the per-layer
// replays that split the service's apply time into WAL and engine time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "ingest.hpp"
#include "service/recovery.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace servebench {

/// What "the same engine state" means here: same lsn, same membership,
/// same priority RNG position (so future add-node draws agree too).
struct EngineState {
  std::uint64_t lsn = 0;
  dmis::core::Membership membership;
  dmis::util::Rng::State rng{};
};

[[nodiscard]] EngineState capture_state(const dmis::core::CascadeEngine& engine,
                                        std::uint64_t lsn);
[[nodiscard]] bool same_state(const dmis::core::CascadeEngine& engine, std::uint64_t lsn,
                              const EngineState& want);

/// verify() (aborts on an internal inconsistency) and membership equal to
/// greedy_mis on the engine's own graph and priorities.
[[nodiscard]] bool oracle_check(const dmis::core::CascadeEngine& engine, std::string* why);

/// durable-churn: the producers' own views of their partitions give the
/// final edge set independently of the service. A from-scratch engine on
/// that edge set (same node set, same priority seed) must serve the same
/// membership — the paper's history independence.
[[nodiscard]] bool history_independence_check(
    const dmis::core::CascadeEngine& engine, const WorkloadSpec& spec,
    const std::vector<std::unique_ptr<OpSource>>& sources, std::uint64_t priority_seed,
    std::string* why);

struct RecoveryRuns {
  std::vector<double> seconds;                         // one per repeat
  std::vector<dmis::service::RecoveryReport> reports;  // one per repeat
  bool matches = true;                                 // every repeat equals `want`
  std::string why;

  /// The report of the median-time repeat (a default one if none ran).
  [[nodiscard]] dmis::service::RecoveryReport median_report() const;
};

/// Recover `dir` (left without close()) through the default borrowed
/// RecoveryManager: `min_reps` times, then more until `budget_s` has passed
/// or `max_reps` were made; the repeats are appended to `runs`. The
/// directory is not changed by recovery.
void measure_recovery(const std::string& dir, std::uint64_t priority_seed, int min_reps,
                      int max_reps, double budget_s, const EngineState& want,
                      RecoveryRuns& runs);

/// Per-batch durations of one layer replayed over the recorded batches;
/// only batches drained inside the timed window are counted.
struct LayerReplay {
  std::vector<double> call_us;  // one per counted call
  double busy_s = 0;
  std::uint64_t records = 0;    // WAL records appended (window)
  std::uint64_t bytes = 0;      // WAL bytes appended (window)
  std::uint64_t evaluated = 0;  // engine: UpdateReport::evaluated (window)
  std::uint64_t adjustments = 0;
  bool matches = true;          // engine: final state equals `want`
  std::string why;
};

/// WalWriter::append of every recorded batch in a fresh directory on the
/// same filesystem, with the workload's fsync policy and `file_factory`.
[[nodiscard]] LayerReplay replay_wal(const WorkloadSpec& spec, const IngestResult& run,
                                     const std::string& dir,
                                     const dmis::util::FileFactory& file_factory);

/// core::apply_batch of every recorded batch on an engine recovered from
/// `dir` (holding only the set-up checkpoint) — borrowed as the service
/// opens it, or materialized.
[[nodiscard]] LayerReplay replay_engine(const IngestResult& run, const std::string& dir,
                                        std::uint64_t priority_seed, bool borrow,
                                        const EngineState& want);

/// A WAL file factory whose files spin `delay_us` before every fsync — the
/// positive control for the layer split.
[[nodiscard]] dmis::util::FileFactory delayed_sync_factory(double delay_us);

}  // namespace servebench
