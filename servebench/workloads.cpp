#include "workloads.hpp"

#include <limits>

#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"

namespace servebench {

using dmis::service::ClientOp;
using dmis::service::FsyncPolicy;

namespace {

// Why each workload exists is in README.md ("Workloads"). Each window is
// the smallest in a window_sweep.py sweep whose acked_ops_per_s reached 90%
// of the sweep's best; larger windows only add queueing (README.md, "Why
// these windows").
const WorkloadSpec kWorkloads[] = {
    {
        .name = "durable-churn",
        .family = Family::kUniform,
        .n = 10'000,
        .avg_degree = 6.0,
        .exponent = 0.0,
        .ops = Ops::kPartitionToggles,
        .p_abrupt = 0.0,
        .producers = 2,
        .window = 2048,
        .fsync = FsyncPolicy::kEveryBatch,
        .checkpoint_every_ops = 200'000,
        .replicate = false,
        .stream_ops_per_s = 0.0,  // toggles are generated on the fly
        .settle_tail_ops = 150'000,
        .sample_at_ops = 1'000'000,
    },
    {
        .name = "bulk-skew-1m",
        .family = Family::kChungLu,
        .n = 1'000'000,
        .avg_degree = 8.0,
        .exponent = 2.5,
        .ops = Ops::kChurn,
        .p_abrupt = 0.4,
        .producers = 1,
        .window = 128,
        .fsync = FsyncPolicy::kInterval,
        .checkpoint_every_ops = 0,
        .replicate = false,
        .stream_ops_per_s = 400'000.0,
        .settle_tail_ops = 50'000,
        .sample_at_ops = 1'000'000,
    },
    {
        .name = "checkpoint-failover",
        .family = Family::kUniform,
        .n = 100'000,
        .avg_degree = 6.0,
        .exponent = 0.0,
        .ops = Ops::kChurn,
        .p_abrupt = 0.5,
        .producers = 1,
        .window = 1024,
        .fsync = FsyncPolicy::kEveryBatch,
        .checkpoint_every_ops = 100'000,
        .replicate = true,
        .stream_ops_per_s = 300'000.0,
        .settle_tail_ops = 50'000,
        .sample_at_ops = 500'000,
    },
};

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

const char* family_name(Family family) {
  return family == Family::kChungLu ? "chung-lu" : "uniform";
}

const char* fsync_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryOp: return "every-op";
    case FsyncPolicy::kEveryBatch: return "every-batch";
    case FsyncPolicy::kInterval: return "interval";
  }
  return "?";
}

dmis::graph::DynamicGraph make_graph(const WorkloadSpec& spec, std::uint64_t seed) {
  dmis::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  if (spec.family == Family::kChungLu)
    return dmis::graph::chung_lu(spec.n, spec.exponent, spec.avg_degree, rng);
  return dmis::graph::random_avg_degree(spec.n, spec.avg_degree, rng);
}

std::uint64_t priority_seed(std::uint64_t seed) { return seed * 31 + 7; }

// --- ToggleSource ----------------------------------------------------------

unsigned ToggleSource::owner(NodeId u, NodeId v, unsigned producers) {
  if (u > v) std::swap(u, v);
  return static_cast<unsigned>((u * 2654435761ULL + v * 40503ULL) % producers);
}

ToggleSource::ToggleSource(const dmis::graph::DynamicGraph& initial, unsigned producer,
                           unsigned producers, std::uint64_t seed)
    : n_(initial.id_bound()),
      producer_(producer),
      producers_(producers),
      rng_seed_(seed * 9176 + producer + 3),
      rng_(rng_seed_) {
  initial.for_each_edge([&](NodeId u, NodeId v) {
    if (owner(u, v, producers_) == producer_)
      initial_.push_back(dmis::graph::edge_key(u, v));
  });
  // Headroom for the walk's excursions: the table never rehashes mid-run.
  present_.reserve(initial_.size() * 2 + 1024);
  present_set_.reserve(present_.capacity());
  rewind();
}

void ToggleSource::rewind() {
  rng_.reseed(rng_seed_);
  present_.assign(initial_.begin(), initial_.end());
  present_set_.clear();
  for (const std::uint64_t key : present_) (void)present_set_.insert(key);
}

bool ToggleSource::next(ClientOp& op) {
  if (!present_.empty() && rng_.next_bit()) {
    const std::size_t i = rng_.below(present_.size());
    const std::uint64_t key = present_[i];
    present_[i] = present_.back();
    present_.pop_back();
    (void)present_set_.erase(key);
    op = ClientOp::remove_edge(static_cast<NodeId>(key >> 32),
                               static_cast<NodeId>(key & 0xffffffffU));
    return true;
  }
  for (;;) {
    const auto u = static_cast<NodeId>(rng_.below(n_));
    const auto v = static_cast<NodeId>(rng_.below(n_));
    if (u == v || owner(u, v, producers_) != producer_) continue;
    const std::uint64_t key = dmis::graph::edge_key(u, v);
    if (present_set_.contains(key)) continue;
    present_.push_back(key);
    (void)present_set_.insert(key);
    op = ClientOp::add_edge(u, v);
    return true;
  }
}

std::size_t ToggleSource::remaining() const {
  return std::numeric_limits<std::size_t>::max();
}

std::size_t ToggleSource::footprint_bytes() const {
  return (initial_.capacity() + present_.capacity()) * sizeof(std::uint64_t) +
         present_set_.capacity() * (sizeof(std::uint64_t) + 1);
}

// --- StreamSource ----------------------------------------------------------

bool StreamSource::next(ClientOp& op) {
  if (cursor_ == stream_.size()) return false;
  const dmis::core::BatchOp& b = stream_.ops()[cursor_++];
  switch (b.kind) {
    case dmis::core::BatchOp::Kind::kAddEdge:
      op = ClientOp::add_edge(b.u, b.v);
      break;
    case dmis::core::BatchOp::Kind::kRemoveEdge:
      op = ClientOp::remove_edge(b.u, b.v);
      break;
    case dmis::core::BatchOp::Kind::kRemoveNode:
      op = ClientOp::remove_node(b.u);
      break;
    case dmis::core::BatchOp::Kind::kAddNode:
      DMIS_ASSERT_MSG(ClientOp::add_node(stream_.neighbors_of(b), &op),
                      "churn add-node exceeds the inline neighbor cap");
      break;
  }
  return true;
}

void append_ops(dmis::core::Batch& out, const dmis::core::Batch& from, std::size_t begin,
                std::size_t end) {
  const auto ops = from.ops();
  for (std::size_t i = begin; i < end; ++i) {
    const dmis::core::BatchOp& op = ops[i];
    switch (op.kind) {
      case dmis::core::BatchOp::Kind::kAddEdge: out.add_edge(op.u, op.v); break;
      case dmis::core::BatchOp::Kind::kRemoveEdge: out.remove_edge(op.u, op.v); break;
      case dmis::core::BatchOp::Kind::kAddNode: out.add_node(from.neighbors_of(op)); break;
      case dmis::core::BatchOp::Kind::kRemoveNode: out.remove_node(op.u); break;
    }
  }
}

std::size_t StreamSource::footprint_bytes() const {
  std::size_t neighbors = 0;
  for (const dmis::core::BatchOp& b : stream_.ops()) neighbors += b.nbr_count;
  return stream_.size() * sizeof(dmis::core::BatchOp) + neighbors * sizeof(NodeId);
}

dmis::core::Batch make_churn_stream(const WorkloadSpec& spec,
                                    dmis::graph::DynamicGraph initial, std::size_t ops,
                                    std::uint64_t seed) {
  dmis::workload::ChurnConfig config;
  config.p_abrupt = spec.p_abrupt;
  dmis::workload::ChurnGenerator gen(std::move(initial), config, seed * 7919 + 11);
  dmis::core::Batch stream;
  stream.reserve(ops, static_cast<std::size_t>(
                          static_cast<double>(ops) * config.p_add_node *
                              config.attach_degree * 1.25) +
                          64);
  for (std::size_t i = 0; i < ops; ++i) dmis::workload::append_op(stream, gen.next());
  return stream;
}

}  // namespace servebench
