// ThreadPool — a reusable fixed-size worker pool for fork/join parallelism.
//
// LockFreeEngine runs a short parallel round per repair (and per warm
// start), so spawning std::threads per round would drown the actual repair
// work in clone/join syscalls. This pool keeps its workers alive for the
// lifetime of the owner: a round is published
// under a mutex (generation counter bump + notify), workers claim task
// indices from a shared atomic counter, and the caller both participates in
// the claiming loop and blocks until the completion count reaches the task
// count. All shared state the tasks touch is therefore ordered by the
// mutex/condition-variable pair: everything written before run_indexed()
// happens-before every task body, and every task body happens-before
// run_indexed()'s return.
//
// run_indexed(count, fn) invokes fn(0) … fn(count−1) exactly once each, in
// unspecified order, possibly concurrently. With zero workers (or count 1)
// everything runs inline on the caller — the degenerate configuration a
// one-worker engine uses, with no synchronization overhead beyond two
// branch tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dmis::util {

class ThreadPool {
 public:
  /// Spawn `worker_count` persistent workers (0 is valid: fully inline).
  explicit ThreadPool(unsigned worker_count);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run fn(0) … fn(count−1), caller participating; blocks until all done.
  /// Not reentrant: tasks must not call run_indexed on the same pool.
  void run_indexed(unsigned count, const std::function<void(unsigned)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per run_indexed call
  bool stopping_ = false;

  // Current job: published under mutex_ by run_indexed, read under mutex_
  // by workers before they start claiming indices. checked_in_ counts
  // workers (not indices) that finished the current generation; the next
  // job is only published after every worker checked in, so no worker can
  // ever observe a later job's claim counter with an earlier job's fn.
  const std::function<void(unsigned)>* job_ = nullptr;
  unsigned job_count_ = 0;
  unsigned checked_in_ = 0;
  std::atomic<unsigned> next_{0};
};

}  // namespace dmis::util
