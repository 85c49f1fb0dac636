#include "core/lockfree_engine.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/invariant.hpp"
#include "util/assert.hpp"

namespace dmis::core {

namespace {

[[nodiscard]] unsigned resolve_workers(unsigned workers) noexcept {
  const unsigned w = workers != 0 ? workers : LockFreeEngine::default_workers();
  return w != 0 ? w : 1;
}

}  // namespace

LockFreeEngine::LockFreeEngine(EngineCore core, unsigned workers)
    : g_(std::move(core.graph)),
      priorities_(std::move(core.priorities)),
      state_(std::move(core.membership)),
      mis_size_(core.mis_size),
      workers_(resolve_workers(workers)),
      pool_(workers_ - 1),
      scratch_(workers_) {
  grow_node_arrays();
  // One serial pass fills the key mirror and settles every status word;
  // the mirror is then in sync, so the first repair skips the resync scan.
  const auto keys = priorities_.raw_keys();
  for (NodeId v = 0; v < g_.id_bound(); ++v) {
    keys_[v] = v < keys.size() ? keys[v] : 0;
    settle_word(v, state_[v] != 0);
  }
  key_version_seen_ = priorities_.version();
}

void LockFreeEngine::grow_node_arrays() {
  const std::size_t bound = g_.id_bound();
  if (state_.size() < bound) state_.resize(bound, 0);
  if (keys_.size() < bound) keys_.resize(bound, 0);
  if (bound > atomic_capacity_) {
    std::size_t cap = atomic_capacity_ == 0 ? 64 : atomic_capacity_;
    while (cap < bound) cap *= 2;
    auto words = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    auto counters = std::make_unique<std::atomic<std::int32_t>[]>(cap);
    auto inqueue = std::make_unique<std::atomic<std::uint8_t>[]>(cap);
    auto next = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
    for (std::size_t v = 0; v < atomic_capacity_; ++v) {
      words[v].store(words_[v].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      counters[v].store(counters_[v].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      inqueue[v].store(inqueue_[v].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      next[v].store(next_[v].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    }
    for (std::size_t v = atomic_capacity_; v < cap; ++v) {
      words[v].store(pack(epoch_, 0, 0, 0, kStOut), std::memory_order_relaxed);
      counters[v].store(0, std::memory_order_relaxed);
      inqueue[v].store(0, std::memory_order_relaxed);
      next[v].store(0, std::memory_order_relaxed);
    }
    words_ = std::move(words);
    counters_ = std::move(counters);
    inqueue_ = std::move(inqueue);
    next_ = std::move(next);
    atomic_capacity_ = cap;
  }
}

void LockFreeEngine::settle_word(NodeId v, bool member) noexcept {
  words_[v].store(pack(epoch_, 0, 0, 0, member ? kStIn : kStOut),
                  std::memory_order_relaxed);
}

void LockFreeEngine::set_member(NodeId v, bool member) {
  mis_size_ += member ? 1 : static_cast<std::size_t>(-1);
  state_[v] = member ? 1 : 0;
}

void LockFreeEngine::begin_epoch() {
  // Resync the key mirror iff any priority was drawn or pinned since the
  // last repair (never in steady state — no node growth, no set_key).
  if (key_version_seen_ != priorities_.version()) {
    key_version_seen_ = priorities_.version();
    for (NodeId v = 0; v < keys_.size(); ++v)
      if (priorities_.is_assigned(v)) keys_[v] = priorities_.key_unchecked(v);
  }
  if (epoch_ == ~static_cast<std::uint32_t>(0)) {
    // Rollover: a tag from 2^32−1 repairs ago would alias the new epoch and
    // make a settled word look live, so rewrite every word onto tag 0 once
    // and restart the counter.
    for (std::size_t v = 0; v < atomic_capacity_; ++v) {
      const std::uint64_t w = words_[v].load(std::memory_order_relaxed);
      words_[v].store(pack(0, 0, 0, 0, word_st(w)), std::memory_order_relaxed);
    }
    epoch_ = 0;
  }
  ++epoch_;
}

void LockFreeEngine::clear_report() {
  report_.adjustments = 0;
  report_.evaluated = 0;
  report_.changed.clear();
}

void LockFreeEngine::wake(NodeId v) {
  if (inqueue_[v].exchange(1, std::memory_order_acq_rel) != 0) return;
  pending_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (;;) {
    next_[v].store(static_cast<std::uint32_t>(head & 0xffffffffULL),
                   std::memory_order_relaxed);
    const std::uint64_t tagged =
        ((head >> 32) + 1) << 32 | (static_cast<std::uint64_t>(v) + 1);
    if (head_.compare_exchange_weak(head, tagged, std::memory_order_release,
                                    std::memory_order_relaxed))
      return;
  }
}

bool LockFreeEngine::pop(NodeId& v) {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t slot = head & 0xffffffffULL;
    if (slot == 0) return false;
    const NodeId id = static_cast<NodeId>(slot - 1);
    // next_[id] is stable while id sits on the stack (only its flag-owning
    // pusher writes it, before the push CAS); a stale read under ABA is
    // rejected by the tagged-head CAS below.
    const std::uint32_t rest = next_[id].load(std::memory_order_relaxed);
    const std::uint64_t tagged = ((head >> 32) + 1) << 32 | rest;
    if (head_.compare_exchange_weak(head, tagged, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      v = id;
      // Clear the flag before processing so wakes arriving mid-evaluation
      // re-queue the node instead of being absorbed into a stale entry.
      inqueue_[v].store(0, std::memory_order_release);
      return true;
    }
  }
}

void LockFreeEngine::mark_and_wake(NodeId v, unsigned w) {
  bool first = false;
  bool became_undecided = false;
  std::uint64_t word = words_[v].load(std::memory_order_acquire);
  for (;;) {
    std::uint64_t next_word;
    if (word_tag(word) == epoch_ && word_st(word) == kStUndecided) {
      // Already marked: bump the stamp so any evaluation scanning right now
      // fails its decide-CAS and rescans (the invalidation path).
      next_word = pack(epoch_, word_stamp(word) + 1, word_prev(word),
                       word_before(word), kStUndecided);
      if (words_[v].compare_exchange_weak(word, next_word,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
        break;
    } else {
      // Settled (older tag) or decided this epoch: transition to UNDECIDED,
      // latching the pre-repair membership (prev, first marking only) and
      // the membership observable until this instant (before).
      const bool fresh = word_tag(word) != epoch_;
      const std::uint64_t prev =
          fresh ? static_cast<std::uint64_t>(word_st(word) == kStIn)
                : word_prev(word);
      next_word =
          pack(epoch_, word_stamp(word) + 1, prev, word_st(word), kStUndecided);
      if (words_[v].compare_exchange_weak(word, next_word,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        first = fresh;
        became_undecided = true;
        break;
      }
    }
  }
  if (became_undecided) {
    // One pending decision at v now blocks every later neighbor; the
    // matching decrements run when v's decision lands.
    for (const NodeId u : g_.neighbors(v))
      if (earlier(v, u)) counters_[u].fetch_add(1, std::memory_order_acq_rel);
  }
  if (first) scratch_[w].touched.push_back(v);
  wake(v);
}

void LockFreeEngine::process(NodeId v, unsigned w) {
  for (;;) {
    const std::uint64_t word = words_[v].load(std::memory_order_acquire);
    if (word_tag(word) != epoch_) return;  // settled; stale queue entry
    if (word_st(word) != kStUndecided) return;  // decided since the wake
    DMIS_ASSERT_MSG(g_.has_node(v),
                    "marked node vanished mid-repair (graph must be constant)");
    // Pop-time filter: a positive counter proves some earlier neighbor's
    // decision is still outstanding; its decider re-wakes v after the
    // matching decrement, so dropping here loses nothing.
    if (counters_[v].load(std::memory_order_acquire) > 0) return;
    const std::uint64_t kv = keys_[v];
    bool ready = true;
    bool has_in = false;
    for (const NodeId u : g_.neighbors(v)) {
      if (!priority_before(keys_[u], u, kv, v)) continue;
      const std::uint64_t wu = words_[u].load(std::memory_order_acquire);
      if (word_tag(wu) == epoch_ && word_st(wu) == kStUndecided) {
        ready = false;
        break;
      }
      if (word_st(wu) == kStIn) has_in = true;
    }
    ++scratch_[w].evaluated;
    // Not ready: drop. The earlier UNDECIDED neighbor's decision wakes every
    // later UNDECIDED neighbor, v included, so readiness is re-signaled.
    if (!ready) return;
    const std::uint64_t st_new = has_in ? kStOut : kStIn;
    const std::uint64_t decided = pack(epoch_, word_stamp(word), word_prev(word),
                                       word_before(word), st_new);
    // The expected value is the word as read BEFORE the scan: any marking or
    // stamp bump that landed mid-scan fails this CAS, and the loop rescans
    // with fresh neighbor states. Success therefore proves the scan raced
    // with nothing that could invalidate it.
    std::uint64_t expected = word;
    if (!words_[v].compare_exchange_strong(expected, decided,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
      continue;
    // Decrement before waking: a later node dropped by the counter filter is
    // guaranteed a wake that follows the decrement it was waiting on.
    for (const NodeId u : g_.neighbors(v))
      if (earlier(v, u)) counters_[u].fetch_sub(1, std::memory_order_acq_rel);
    const std::uint64_t st_before = word_before(word);
    for (const NodeId u : g_.neighbors(v)) {
      if (!earlier(v, u)) continue;
      const std::uint64_t wu = words_[u].load(std::memory_order_acquire);
      if (st_new == st_before) {
        // Value unchanged: no decided neighbor's evaluation is invalidated
        // (every observable value of v stayed correct), so only later
        // UNDECIDED neighbors — possibly dropped waiting on v — need a wake.
        if (word_tag(wu) == epoch_ && word_st(wu) == kStUndecided) wake(u);
      } else if (st_new == kStIn) {
        // v joined M: a later OUT neighbor just gained one more blocker and
        // stays OUT; later members must leave and later UNDECIDED neighbors
        // may have scanned the old value — re-mark/invalidate both.
        if (word_st(wu) != kStOut) mark_and_wake(u, w);
      } else {
        // v left M: any later neighbor may now rise (and an in-flight
        // evaluation may have read the old IN) — re-mark them all.
        mark_and_wake(u, w);
      }
    }
    return;
  }
}

void LockFreeEngine::worker_loop(unsigned w) {
  for (;;) {
    NodeId v = 0;
    if (pop(v)) {
      process(v, w);
      pending_.fetch_sub(1, std::memory_order_release);
    } else {
      if (pending_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
    }
  }
}

void LockFreeEngine::repair() {
  clear_report();
  if (seeds_.empty()) return;
  begin_epoch();
  for (const NodeId v : seeds_) {
    DMIS_ASSERT_MSG(v < g_.id_bound(), "repair seed references an unknown node id");
    mark_and_wake(v, 0);
  }
  if (workers_ > 1) {
    pool_.run_indexed(workers_, [this](unsigned w) { worker_loop(w); });
  } else {
    worker_loop(0);
  }
  DMIS_ASSERT_MSG(pending_.load(std::memory_order_relaxed) == 0,
                  "work stack not quiescent after repair");
  // Quiescence: fold the per-worker touched lists into the serial mirrors
  // and the report. Every touched word is decided (an UNDECIDED survivor
  // would still hold a queue entry, contradicting quiescence).
  for (WorkerScratch& s : scratch_) {
    report_.evaluated += s.evaluated;
    s.evaluated = 0;
    for (const NodeId v : s.touched) {
      const std::uint64_t word = words_[v].load(std::memory_order_relaxed);
      DMIS_ASSERT_MSG(word_st(word) != kStUndecided,
                      "undecided node survived to quiescence");
      const bool member = word_st(word) == kStIn;
      if (member != (word_prev(word) != 0)) {
        set_member(v, member);
        report_.changed.push_back(v);
      }
    }
    s.touched.clear();
  }
  report_.adjustments = report_.changed.size();
  if (report_.changed.size() > 1)
    std::sort(report_.changed.begin(), report_.changed.end());
}

NodeId LockFreeEngine::add_node(std::span<const NodeId> neighbors) {
  const NodeId v = g_.add_node();
  const bool was_in_sync = key_version_seen_ == priorities_.version();
  const std::uint64_t key = priorities_.ensure(v);
  grow_node_arrays();
  settle_word(v, false);
  if (was_in_sync) {
    keys_[v] = key;
    key_version_seen_ = priorities_.version();
  }
  for (const NodeId u : neighbors) g_.add_edge(v, u);
  seeds_.clear();
  seeds_.push_back(v);
  repair();
  return v;
}

const UpdateReport& LockFreeEngine::add_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.add_edge(u, v));
  // The invariant can only break at the later endpoint, and only when both
  // endpoints are currently members (§3).
  if (state_[u] != 0 && state_[v] != 0) {
    seeds_.clear();
    seeds_.push_back(priorities_.before(u, v) ? v : u);
    repair();
  } else {
    clear_report();
  }
  return report_;
}

const UpdateReport& LockFreeEngine::remove_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.remove_edge(u, v));
  // Only the later endpoint can break, and only if it just lost its sole
  // earlier member neighbor — mirror of the cascade's seeding rule.
  if ((state_[u] != 0) != (state_[v] != 0)) {
    const NodeId lo = priorities_.before(u, v) ? u : v;
    const NodeId hi = lo == u ? v : u;
    if (state_[lo] != 0) {
      seeds_.clear();
      seeds_.push_back(hi);
      repair();
      return report_;
    }
  }
  clear_report();
  return report_;
}

const UpdateReport& LockFreeEngine::remove_node(NodeId v) {
  DMIS_ASSERT(g_.has_node(v));
  seeds_.clear();
  // Deleting a non-member affects nobody; deleting a member can free exactly
  // its later-ordered neighbors.
  if (state_[v] != 0)
    for (const NodeId u : g_.neighbors(v))
      if (priorities_.before(v, u)) seeds_.push_back(u);
  g_.remove_node(v);
  if (state_[v] != 0) set_member(v, false);
  settle_word(v, false);
  repair();
  return report_;
}

graph::NodeSet LockFreeEngine::mis_set() const {
  graph::NodeSet out;
  out.reserve(mis_size_);
  g_.for_each_node([&](NodeId v) {
    if (state_[v] != 0) out.push_back_ascending(v);
  });
  return out;
}

void LockFreeEngine::debug_set_epoch(std::uint32_t epoch) {
  for (std::size_t v = 0; v < atomic_capacity_; ++v) {
    const std::uint64_t w = words_[v].load(std::memory_order_relaxed);
    words_[v].store(pack(epoch, 0, 0, 0, word_st(w)), std::memory_order_relaxed);
  }
  epoch_ = epoch;
}

void LockFreeEngine::verify() const {
  DMIS_ASSERT_MSG(invariant_holds(g_, priorities_, state_, nullptr),
                  "MIS invariant violated after lock-free repair");
  std::size_t count = 0;
  for (NodeId v = 0; v < state_.size(); ++v) {
    count += state_[v];
    const std::uint64_t word = words_[v].load(std::memory_order_relaxed);
    DMIS_ASSERT_MSG(word_st(word) != kStUndecided,
                    "status word undecided outside a repair");
    DMIS_ASSERT_MSG((word_st(word) == kStIn) == (state_[v] != 0),
                    "status-word membership drifted from the serial mirror");
    DMIS_ASSERT_MSG(counters_[v].load(std::memory_order_relaxed) == 0,
                    "undecided-neighbor counter nonzero at quiescence");
    DMIS_ASSERT_MSG(inqueue_[v].load(std::memory_order_relaxed) == 0,
                    "in-queue flag set outside a repair");
  }
  DMIS_ASSERT_MSG(count == mis_size_, "incremental MIS-size counter drifted");
  DMIS_ASSERT_MSG(head_.load(std::memory_order_relaxed) % (1ULL << 32) == 0,
                  "work stack non-empty outside a repair");
}

}  // namespace dmis::core
