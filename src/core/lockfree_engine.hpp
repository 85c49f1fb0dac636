// LockFreeEngine — barrier-free parallel maintenance of the random-greedy
// MIS via per-node CAS, the fourth interchangeable engine.
//
// The license for this engine is the paper's history-independence theorem
// (§3): the maintained MIS is the *unique* fixpoint of the node priorities
// — v ∈ M iff no earlier-π live neighbor is in M — so ANY repair schedule
// that converges to that fixpoint computes exactly the same set as the
// sequential cascade, the batch repair, or the simulated protocols.
// Schedule-independence means workers need no barriers, no rounds and no
// shard ownership: they race freely and the fixpoint referees.
//
// Priorities are the shared core::PriorityMap's seeded 64-bit draws — the
// "hash-derived u64 keys" of the design: one uniform draw per id, never
// reused. Using the shared map (rather than a private hash) is load-bearing
// twice over: the differential harness compares every engine against the
// greedy oracle under one common key stream, and snapshot warm starts adopt
// the *persisted* keys + RNG so a restart continues the saved process.
//
// Protocol. Each node owns one atomic u64 status word packing
//
//   [ epoch tag : 32 | stamp : 27 | prev : 1 | before : 2 | st : 2 ]
//
// st ∈ {UNDECIDED, IN, OUT}. A word whose tag differs from the active
// repair epoch is *settled* and always holds IN/OUT — UNDECIDED exists only
// tagged with the live epoch, so membership is readable from the word alone
// and no plain byte array is touched during a repair (the public
// membership() mirror is rewritten serially at quiescence). `prev` latches
// the pre-repair membership at the node's first marking (adjustment
// accounting); `before` latches the st observable immediately prior to the
// current marking (the decider's wake rules key off it); `stamp` is bumped
// by every marking CAS so that a decide-CAS — whose expected value is the
// word read *before* the neighbor scan — doubles as validation: any
// re-mark or invalidation that lands mid-scan changes the word and fails
// the CAS, forcing a rescan with fresh neighbor values.
//
// A repair marks its seed set UNDECIDED and lets workers drain a Treiber
// stack of woken nodes. Popping v evaluates it: if any earlier-π neighbor
// reads UNDECIDED the pop is dropped — that neighbor's own decision is
// obligated to wake v again — otherwise v decides IN iff no earlier
// neighbor reads IN, via CAS. A decider whose value changed re-marks the
// later neighbors the change can affect (joined ⇒ later members must
// leave; left ⇒ later nodes may rise) and always wakes later UNDECIDED
// neighbors. Wakes flow strictly later in π, so termination follows by
// induction along π over the affected closure: the π-minimal marked node
// has only settled earlier neighbors and decides finally on first
// evaluation, and each node is re-marked at most once per decision of an
// earlier marked neighbor. Progress is lock-free: every failed CAS means
// another thread changed the word, i.e. marked or decided a node.
//
// Atomic undecided-neighbor counters (one i32 per node: marks minus
// decides of earlier-π neighbors) serve as a pop-time filter only — a
// popped node with a positive counter is dropped without scanning, because
// the counter's eventual decrementer pushes the node again *after* its
// decrement. The counters are never used to decide; the neighbor scan is
// the sole readiness authority, so transient counter lag cannot strand a
// node or corrupt a decision.
//
// The engine carries the full contract of its siblings: span /
// initializer_list topology APIs, UpdateReport with the paper's adjustment
// measure, every EngineCore start (graph or snapshot, materialized, split or
// borrowed, under every load mode), verify(), and epoch debug hooks. All repair scratch (status words, counters, work
// stack, per-worker touched lists) is hoisted into the engine, so steady
// state updates perform zero heap allocations end to end; with
// worker_count == 1 the same loop runs inline on the caller with no pool
// hand-off. The worker count defaults to the DMIS_THREADS compile-time
// knob (CMake cache variable; 1 when unset), which is how the CI TSan leg
// runs the differential fuzzer 4-threaded.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cascade_engine.hpp"  // UpdateReport
#include "core/engine_core.hpp"
#include "core/membership.hpp"
#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_set.hpp"
#include "util/thread_pool.hpp"

namespace dmis::core {

class LockFreeEngine {
 public:
  /// Worker count when the constructor argument is 0: the DMIS_THREADS
  /// compile-time knob, else 1 (fully inline, no pool threads).
  [[nodiscard]] static unsigned default_workers() noexcept {
#ifdef DMIS_THREADS
    return static_cast<unsigned>(DMIS_THREADS);
#else
    return 1;
#endif
  }

  /// Adopt a start state (core/engine_core.hpp) and build the key mirror
  /// and the settled status words; `workers` 0 means default_workers().
  explicit LockFreeEngine(EngineCore core, unsigned workers = 0);

  /// Every EngineCore source builds the engine directly with the default
  /// worker count: LockFreeEngine(g, seed), LockFreeEngine(snapshot, seed,
  /// mode), ... A worker count goes through the core:
  /// LockFreeEngine(EngineCore(g, seed), 4).
  template <typename... Args>
    requires std::constructible_from<EngineCore, Args...>
  explicit LockFreeEngine(Args&&... args)
      : LockFreeEngine(EngineCore(std::forward<Args>(args)...)) {}

  NodeId add_node(std::span<const NodeId> neighbors = {});
  NodeId add_node(std::initializer_list<NodeId> neighbors) {
    return add_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  const UpdateReport& add_edge(NodeId u, NodeId v);
  const UpdateReport& remove_edge(NodeId u, NodeId v);
  const UpdateReport& remove_node(NodeId v);

  [[nodiscard]] bool in_mis(NodeId v) const {
    return v < state_.size() && state_[v] != 0;
  }
  [[nodiscard]] std::size_t mis_size() const noexcept { return mis_size_; }
  [[nodiscard]] graph::NodeSet mis_set() const;
  [[nodiscard]] const Membership& membership() const noexcept { return state_; }
  [[nodiscard]] const graph::DynamicGraph& graph() const noexcept { return g_; }
  [[nodiscard]] PriorityMap& priorities() noexcept { return priorities_; }
  [[nodiscard]] const PriorityMap& priorities() const noexcept { return priorities_; }
  [[nodiscard]] const UpdateReport& last_report() const noexcept { return report_; }
  [[nodiscard]] unsigned worker_count() const noexcept { return workers_; }

  /// Abort unless the MIS invariant holds everywhere AND the quiescent
  /// atomic state is consistent: every status word settled and mirroring
  /// membership(), every undecided-neighbor counter zero, every in-queue
  /// flag clear (test hook).
  void verify() const;

  // --- test hooks for the epoch-tagged status words ---
  [[nodiscard]] std::uint32_t debug_epoch() const noexcept { return epoch_; }
  /// Force the epoch counter (rollover coverage); rewrites every status
  /// word's tag so observable behavior is unchanged apart from the counter.
  void debug_set_epoch(std::uint32_t epoch);

 private:
  static constexpr std::uint64_t kStUndecided = 0;
  static constexpr std::uint64_t kStIn = 1;
  static constexpr std::uint64_t kStOut = 2;

  static constexpr std::uint64_t pack(std::uint32_t tag, std::uint64_t stamp,
                                      std::uint64_t prev, std::uint64_t before,
                                      std::uint64_t st) noexcept {
    return (static_cast<std::uint64_t>(tag) << 32) |
           ((stamp & 0x7ffffffULL) << 5) | ((prev & 1ULL) << 4) |
           ((before & 3ULL) << 2) | (st & 3ULL);
  }
  static constexpr std::uint64_t word_st(std::uint64_t w) noexcept { return w & 3; }
  static constexpr std::uint64_t word_before(std::uint64_t w) noexcept {
    return (w >> 2) & 3;
  }
  static constexpr std::uint64_t word_prev(std::uint64_t w) noexcept {
    return (w >> 4) & 1;
  }
  static constexpr std::uint64_t word_stamp(std::uint64_t w) noexcept {
    return (w >> 5) & 0x7ffffff;
  }
  static constexpr std::uint32_t word_tag(std::uint64_t w) noexcept {
    return static_cast<std::uint32_t>(w >> 32);
  }

  /// Per-worker repair scratch, cacheline-padded so the hot counters of
  /// adjacent workers never share a line.
  struct alignas(64) WorkerScratch {
    std::vector<NodeId> touched;  // nodes this worker first-marked
    std::uint64_t evaluated = 0;
  };

  void grow_node_arrays();
  /// Settle v's word outside any repair (construction / deletions).
  void settle_word(NodeId v, bool member) noexcept;
  void set_member(NodeId v, bool member);

  /// Mark v UNDECIDED for the live epoch (or bump its stamp if it already
  /// is), bookkeeping counters/touched, and wake it. Worker index w names
  /// the touched list that records a first marking.
  void mark_and_wake(NodeId v, unsigned w);
  /// Push v onto the work stack iff it is not already queued.
  void wake(NodeId v);
  /// Pop one node; false when the stack is empty.
  [[nodiscard]] bool pop(NodeId& v);
  /// Evaluate-and-decide loop for one popped node.
  void process(NodeId v, unsigned w);
  void worker_loop(unsigned w);

  /// Run one repair from seeds_ (the caller thread participates); fills
  /// report_ and re-syncs the serial mirrors at quiescence.
  void repair();
  void begin_epoch();
  void clear_report();

  [[nodiscard]] bool earlier(NodeId u, NodeId v) const noexcept {
    return priority_before(keys_[u], u, keys_[v], v);
  }

  graph::DynamicGraph g_;
  PriorityMap priorities_;
  Membership state_;  // serial mirror; rewritten at quiescence, never
                      // read during a repair
  std::size_t mis_size_ = 0;
  UpdateReport report_;
  unsigned workers_ = 1;
  util::ThreadPool pool_;  // workers_ - 1 threads; caller participates

  // Per-node repair state (indexed by id, grown with the graph; the atomic
  // arrays use unique_ptr storage because atomics are not movable).
  std::vector<std::uint64_t> keys_;  // PriorityMap mirror (version-resynced)
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::unique_ptr<std::atomic<std::int32_t>[]> counters_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> inqueue_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;  // Treiber stack links
  std::size_t atomic_capacity_ = 0;

  // Treiber stack head: [aba tag : 32 | node id + 1 : 32]; 0 = empty.
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> pending_{0};  // queued + in-flight nodes

  std::vector<WorkerScratch> scratch_;
  std::vector<NodeId> seeds_;
  std::uint32_t epoch_ = 0;
  std::uint64_t key_version_seen_ = ~static_cast<std::uint64_t>(0);
};

}  // namespace dmis::core
