// Topology-change traces: a serializable sequence of graph operations that
// can be replayed against any of the library's dynamic engines.
//
// Traces are the common currency of the workload generators, the
// history-independence machinery (two different traces building the same
// graph must induce the same output distribution — Definition 14) and the
// benches. Node ids in a trace are *positional*: an add-node/unmute op
// creates the next id in sequence (DynamicGraph ids are assigned in
// insertion order), so a trace is self-contained.
//
// Text format (one op per line, '#' comments):
//   an [nbr...]     add node (id = next), wired to the listed existing nodes
//   un [nbr...]     unmute node (same effect; distributed path differs)
//   ae u v          add edge
//   re u v          remove edge (graceful)
//   rea u v         remove edge (abrupt)
//   rn v            remove node (graceful)
//   rna v           remove node (abrupt)
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/dist_mis.hpp"  // core::DeletionMode
#include "graph/dynamic_graph.hpp"

namespace dmis::workload {

using graph::NodeId;

enum class OpKind : std::uint8_t {
  kAddNode,
  kUnmuteNode,
  kAddEdge,
  kRemoveEdgeGraceful,
  kRemoveEdgeAbrupt,
  kRemoveNodeGraceful,
  kRemoveNodeAbrupt,
};

struct GraphOp {
  OpKind kind = OpKind::kAddNode;
  NodeId u = 0;
  NodeId v = 0;
  std::vector<NodeId> neighbors;  // kAddNode / kUnmuteNode only

  [[nodiscard]] static GraphOp add_node(std::vector<NodeId> neighbors = {}) {
    return {OpKind::kAddNode, 0, 0, std::move(neighbors)};
  }
  [[nodiscard]] static GraphOp unmute_node(std::vector<NodeId> neighbors = {}) {
    return {OpKind::kUnmuteNode, 0, 0, std::move(neighbors)};
  }
  [[nodiscard]] static GraphOp add_edge(NodeId u, NodeId v) {
    return {OpKind::kAddEdge, u, v, {}};
  }
  [[nodiscard]] static GraphOp remove_edge(NodeId u, NodeId v, bool abrupt = false) {
    return {abrupt ? OpKind::kRemoveEdgeAbrupt : OpKind::kRemoveEdgeGraceful, u, v, {}};
  }
  [[nodiscard]] static GraphOp remove_node(NodeId v, bool abrupt = false) {
    return {abrupt ? OpKind::kRemoveNodeAbrupt : OpKind::kRemoveNodeGraceful, v, v, {}};
  }
};

using Trace = std::vector<GraphOp>;

/// A trace that builds `g` from nothing by inserting nodes in id order and
/// then each edge (the canonical "grow" history of a graph).
[[nodiscard]] Trace grow_trace(const graph::DynamicGraph& g);

/// What apply() reads of an op: its kind, its endpoints and its add-node
/// neighbor list. GraphOp and TraceFile::OpView (the zero-copy view of a
/// binary trace record, workload/trace_file.hpp) both qualify.
template <typename Op>
concept TraceOp = requires(const Op& op) {
  { op.kind } -> std::convertible_to<OpKind>;
  { op.u } -> std::convertible_to<NodeId>;
  { op.v } -> std::convertible_to<NodeId>;
  std::span<const NodeId>(op.neighbors);
};

/// Apply one op to any engine, or to a core::Batch being built. The
/// sequential engines (add_node/add_edge) collapse graceful/abrupt and
/// treat unmute as insertion: the distinctions only exist at the
/// communication layer. The distributed drivers (insert_node/unmute_node)
/// keep unmute apart, and keep the deletion mode where their model has one
/// (DistMis; AsyncMis has a single deletion).
template <typename Engine, TraceOp Op>
void apply(Engine& engine, const Op& op) {
  const std::span<const NodeId> neighbors(op.neighbors);
  constexpr bool kDistributed = requires { engine.unmute_node(neighbors); };
  const core::DeletionMode mode =
      op.kind == OpKind::kRemoveEdgeAbrupt || op.kind == OpKind::kRemoveNodeAbrupt
          ? core::DeletionMode::kAbrupt
          : core::DeletionMode::kGraceful;
  switch (op.kind) {
    case OpKind::kAddNode:
    case OpKind::kUnmuteNode:
      if constexpr (!kDistributed) (void)engine.add_node(neighbors);
      else if (op.kind == OpKind::kUnmuteNode) (void)engine.unmute_node(neighbors);
      else (void)engine.insert_node(neighbors);
      break;
    case OpKind::kAddEdge:
      if constexpr (kDistributed) (void)engine.insert_edge(op.u, op.v);
      else (void)engine.add_edge(op.u, op.v);
      break;
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      if constexpr (requires { engine.remove_edge(op.u, op.v, mode); })
        (void)engine.remove_edge(op.u, op.v, mode);
      else (void)engine.remove_edge(op.u, op.v);
      break;
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      if constexpr (requires { engine.remove_node(op.u, mode); })
        (void)engine.remove_node(op.u, mode);
      else (void)engine.remove_node(op.u);
      break;
  }
}

template <typename Engine>
void replay(Engine& engine, const Trace& trace) {
  for (const GraphOp& op : trace) apply(engine, op);
}

/// The graph a trace builds (no MIS machinery), for cross-checks.
[[nodiscard]] graph::DynamicGraph materialize(const Trace& trace);

void write_trace(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_trace(std::istream& is);

}  // namespace dmis::workload
