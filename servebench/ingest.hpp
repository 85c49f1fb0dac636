// The closed-loop serving loop: producer threads submit through
// IngestQueue, the calling thread is the one service thread that drains,
// applies, checkpoints at the workload's cadence, acks, and pumps log
// shipping. With `traced` set it also keeps timed spans around each public
// call and a copy of every drained batch, for the per-layer split.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "measure.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace servebench {

/// A follower fed by the leader's log through an in-process transport.
/// Heap-held so the shipper's and transport's pointers stay valid.
struct Replica {
  dmis::service::FollowerService follower;
  dmis::service::DirectTransport transport;
  dmis::service::LogShipper shipper;

  Replica(dmis::service::FollowerService f, const std::string& leader_dir)
      : follower(std::move(f)), transport(&follower), shipper(leader_dir, &transport) {}
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
};

struct IngestPlan {
  const WorkloadSpec* spec = nullptr;
  double warm_s = 1.0;   // ops in this lead-in are applied but not measured
  double seconds = 10.0;  // the timed window
  bool traced = false;
  /// Ops kept back from each churn stream for the settle phase.
  std::size_t settle_reserve_ops = 0;
  /// 0: the window is timed and the phase stops when it closes. Otherwise
  /// the window closes once the phase has applied this many ops, and the
  /// phase settles for a crash: one checkpoint, then the workload's tail.
  std::uint64_t crash_at_ops = 0;
};

/// One non-empty drain → apply → (checkpoint) → ack → (ship, poll) round,
/// timestamps in ns since the phase started. Traced runs only.
struct BatchSpan {
  std::int64_t drain_begin = 0;
  std::int64_t drain_end = 0;
  std::int64_t apply_end = 0;
  std::int64_t checkpoint_end = 0;  // == apply_end when no checkpoint ran
  std::int64_t ack_end = 0;
  std::int64_t ship_end = 0;  // == ack_end without replication
  std::int64_t poll_end = 0;
  std::uint32_t ops = 0;
  bool in_window = false;
  bool checkpointed = false;
  std::uint64_t lane_acked[2] = {0, 0};  // IngestQueue::acked(p) after this ack
};

struct IngestResult {
  bool ok = true;
  std::string error;

  // End-to-end, over the timed window. The window is cut into one-second
  // slices; each op's latency lands in the slice it was submitted in.
  double window_s = 0;
  std::uint64_t window_ops = 0;          // ops acked inside the window
  std::vector<LatencyHistogram> ack_slices;  // per-op submit → ack
  std::vector<double> slice_ops_per_s;   // ops acked per slice ÷ its length
  std::uint64_t attempted = 0;       // ops submitted over the whole phase
  std::uint64_t acked = 0;           // ops acked over the whole phase
  // Sampled at equal work (WorkloadSpec::sample_at_ops).
  std::uint64_t sampled_at_ops = 0;  // ops the phase had applied
  std::uint64_t rss_bytes = 0;
  std::uint64_t disk_bytes = 0;      // WAL + checkpoint bytes written by then
  bool stream_ran_dry = false;
  ProcCounters proc_window;          // differences over the window
  std::vector<double> checkpoint_s;  // every MisService::checkpoint() call

  // Per-layer inputs (traced runs).
  std::vector<BatchSpan> spans;
  std::vector<std::vector<std::int64_t>> submit_ns;  // [producer][op seq]
  dmis::core::Batch recorded;                        // every drained op, in order
  std::vector<std::size_t> batch_ends;               // recorded.size() after each batch
  std::int64_t idle_ns = 0;          // window time in empty drain() rounds
  std::uint64_t empty_drains = 0;
  std::uint64_t window_batches = 0;  // non-empty drains in the window
  std::uint64_t backpressure_waits = 0;
  std::uint64_t shipped_bytes = 0;   // LogShipper bytes over the window
  std::uint64_t lag_ops_max = 0;     // leader lsn − follower applied, after poll
};

/// Run one ingest phase against `service` until the window has closed (and,
/// with `plan.crash_at_ops`, a checkpoint has been taken and the leader sits
/// `spec.settle_tail_ops` past it). `sources` holds one OpSource per
/// producer. On return every producer thread is joined and every submitted
/// op is acked (unless `ok` is false).
IngestResult run_ingest(const IngestPlan& plan, dmis::service::MisService& service,
                        std::vector<std::unique_ptr<OpSource>>& sources,
                        Replica* replica);

}  // namespace servebench
