// Workload definitions and set-up for the serving benchmark: which graph the
// service starts from, which ops the producers send, and the serving knobs
// (fsync policy, checkpoint cadence, replication). Everything here is a pure
// function of (workload, seed), so the same seed gives the same inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/batch.hpp"
#include "graph/dynamic_graph.hpp"
#include "service/ingest.hpp"
#include "service/wal.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace servebench {

using dmis::graph::NodeId;

/// WAL segment size. Checkpoints only delete sealed segments, so this also
/// bounds the WAL that recovery scans past the checkpoint.
inline constexpr std::uint64_t kSegmentBytes = 4ULL << 20;

enum class Family { kUniform, kChungLu };
enum class Ops { kPartitionToggles, kChurn };

struct WorkloadSpec {
  const char* name;
  Family family;
  NodeId n;
  double avg_degree;
  double exponent;  // Chung-Lu tail exponent (unused for uniform graphs)
  Ops ops;
  double p_abrupt;  // churn streams: share of node removals that are abrupt
  unsigned producers;
  std::size_t window;  // ops each producer keeps in flight (closed loop)
  dmis::service::FsyncPolicy fsync;
  std::uint64_t checkpoint_every_ops;  // 0 = no checkpoints in the timed window
  bool replicate;  // ship to a follower and poll it after every ack
  /// Pre-generated churn streams hold this many ops per second of run time
  /// (plus the settle reserve); a service faster than this ends its timed
  /// window early when the stream runs dry.
  double stream_ops_per_s;
  /// At the crash, the leader is this many ops past its last checkpoint, so
  /// recovery replays a fixed tail whatever the throughput was.
  std::uint64_t settle_tail_ops;
  /// serve_rss_mb and disk_bytes_per_op are sampled once the phase has
  /// applied this many ops and, with a cadence, taken sample_at_ops ÷
  /// checkpoint_every_ops checkpoints (or at window close if it never gets
  /// there). Memory and disk use that grow with the ops applied are then
  /// compared at equal work, whatever the throughput was.
  std::uint64_t sample_at_ops;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// IngestQueue admission cap: half the ops in flight, so the producers fill
/// the next batch while the service applies, fsyncs and acks this one.
[[nodiscard]] inline std::size_t max_batch_ops(const WorkloadSpec& spec) {
  return std::max<std::size_t>(1, spec.producers * spec.window / 2);
}
[[nodiscard]] const char* family_name(Family family);
[[nodiscard]] const char* fsync_name(dmis::service::FsyncPolicy policy);

/// The initial graph of a workload; a pure function of (spec, seed).
[[nodiscard]] dmis::graph::DynamicGraph make_graph(const WorkloadSpec& spec,
                                                   std::uint64_t seed);

/// Priority seed of the service engine (derived from the workload seed).
[[nodiscard]] std::uint64_t priority_seed(std::uint64_t seed);

/// One producer's op supply. Each producer thread owns exactly one source.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// The next op; false when the source is exhausted.
  virtual bool next(dmis::service::ClientOp& op) = 0;
  /// Ops left (SIZE_MAX when unbounded).
  [[nodiscard]] virtual std::size_t remaining() const = 0;
  /// Heap bytes the source holds (subtracted from the service's RSS).
  [[nodiscard]] virtual std::size_t footprint_bytes() const = 0;
  /// Start over: next() gives the same ops again, from the first.
  virtual void rewind() = 0;
};

/// durable-churn: producer p toggles edges {u, v} with owner(u, v) == p —
/// the `dmis_service serve` hash partition, so no two producers ever touch
/// the same edge and every interleaving the service picks is a valid op
/// stream. Half the ops remove a uniform present edge of the partition, half
/// add a uniform absent pair, so the edge count does a zero-drift walk around
/// its initial value. Ops are generated on the fly from the producer's own
/// view of its partition; that view is also the expected final edge set the
/// history-independence check compares against.
class ToggleSource final : public OpSource {
 public:
  ToggleSource(const dmis::graph::DynamicGraph& initial, unsigned producer,
               unsigned producers, std::uint64_t seed);
  bool next(dmis::service::ClientOp& op) override;
  [[nodiscard]] std::size_t remaining() const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;
  void rewind() override;
  /// Edge keys (graph::edge_key) present in this partition right now.
  [[nodiscard]] const std::vector<std::uint64_t>& present() const { return present_; }

 private:
  [[nodiscard]] static unsigned owner(NodeId u, NodeId v, unsigned producers);

  NodeId n_;
  unsigned producer_;
  unsigned producers_;
  std::uint64_t rng_seed_;
  dmis::util::Rng rng_;
  std::vector<std::uint64_t> initial_;  // present_ at construction
  std::vector<std::uint64_t> present_;
  dmis::util::FlatSet present_set_;
};

/// bulk-skew-1m / checkpoint-failover: a ChurnGenerator stream (node inserts,
/// graceful and abrupt node deletes, edge toggles), generated in set-up and
/// replayed op by op.
class StreamSource final : public OpSource {
 public:
  explicit StreamSource(dmis::core::Batch stream) : stream_(std::move(stream)) {}
  bool next(dmis::service::ClientOp& op) override;
  [[nodiscard]] std::size_t remaining() const override {
    return stream_.size() - cursor_;
  }
  [[nodiscard]] std::size_t footprint_bytes() const override;
  void rewind() override { cursor_ = 0; }

 private:
  dmis::core::Batch stream_;
  std::size_t cursor_ = 0;
};

/// Append ops [begin, end) of `from` to `out`.
void append_ops(dmis::core::Batch& out, const dmis::core::Batch& from, std::size_t begin,
                std::size_t end);

/// The churn stream of a workload: `ops` ops against `initial`.
[[nodiscard]] dmis::core::Batch make_churn_stream(const WorkloadSpec& spec,
                                                  dmis::graph::DynamicGraph initial,
                                                  std::size_t ops, std::uint64_t seed);

}  // namespace servebench
