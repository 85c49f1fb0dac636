// Tests for the parallel plumbing: util::ThreadPool (persistent fork/join
// workers under LockFreeEngine and the service CLI's producers) and
// util::SpscRing (the lock-free single-producer single-consumer queue under
// each IngestQueue lane).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "util/spsc_ring.hpp"
#include "util/thread_pool.hpp"

namespace {

using dmis::util::SpscRing;
using dmis::util::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  for (auto& h : hits) h.store(0);
  pool.run_indexed(97, [&](unsigned i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossManyRounds) {
  // LockFreeEngine runs one job per repair; the pool must
  // survive thousands of publish/claim/check-in cycles without losing or
  // duplicating work.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t expected = 0;
  for (unsigned round = 0; round < 2'000; ++round) {
    const unsigned count = 1 + round % 5;
    pool.run_indexed(count, [&](unsigned i) { total.fetch_add(i + 1); });
    expected += static_cast<std::uint64_t>(count) * (count + 1) / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0U);
  std::vector<int> hits(10, 0);
  const auto self = std::this_thread::get_id();
  pool.run_indexed(10, [&](unsigned i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ResultsVisibleAfterReturn) {
  // Plain (non-atomic) writes inside tasks must be visible to the caller
  // after run_indexed returns — the barrier LockFreeEngine's quiescence
  // relies on.
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(1024, 0);
  for (int round = 0; round < 50; ++round) {
    pool.run_indexed(static_cast<unsigned>(out.size()),
                     [&](unsigned i) { out[i] = static_cast<std::uint64_t>(i) * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i);
  }
}

TEST(SpscRing, FillDrainSequential) {
  SpscRing<std::uint32_t> ring;
  ring.init(8);
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t k = 0; k < 8; ++k) EXPECT_TRUE(ring.try_push(k));
  EXPECT_FALSE(ring.try_push(99)) << "ring must report full at capacity";
  std::uint32_t v = 0;
  for (std::uint32_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, k) << "FIFO order";
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty());
  // Wrap-around: reuse after drain keeps working.
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.try_push(7));
    ASSERT_TRUE(ring.try_pop(v));
  }
}

TEST(SpscRing, ConcurrentProducerConsumerStress) {
  // One producer and one consumer hammer a small ring so every head/tail
  // interleaving (full, empty, wrap) is exercised; the consumer must see
  // exactly the pushed sequence, in order. Run under TSan in CI.
  SpscRing<std::uint64_t> ring;
  ring.init(64);
  constexpr std::uint64_t kCount = 200'000;

  std::thread producer([&] {
    for (std::uint64_t k = 0; k < kCount; ++k)
      while (!ring.try_push(k * 2654435761ULL)) std::this_thread::yield();
  });

  std::uint64_t received = 0;
  bool in_order = true;
  std::uint64_t value = 0;
  while (received < kCount) {
    if (ring.try_pop(value)) {
      in_order &= value == received * 2654435761ULL;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(received, kCount);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
