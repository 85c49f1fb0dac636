// Small measurement helpers: clock, order statistics, process counters and
// host facts. Header-only; everything here is benchmark-side.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); sorts `values` in place. 0 if empty.
template <typename T>
[[nodiscard]] double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(values[std::min(i, values.size() - 1)]);
}

template <typename T>
[[nodiscard]] double median(std::vector<T> values) {
  return quantile(values, 0.5);
}

/// Mean of the middle half of `values` (the whole set when it has fewer
/// than four): a burst of host noise is cut off as by a median, while the
/// values that remain are averaged. 0 if empty.
[[nodiscard]] inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Log-linear latency histogram over nanoseconds: exact below 256 ns, then
/// 256 sub-buckets per power of two (≤ 0.4% relative error). Fixed size
/// (~30 KiB) and filled in place, so recording allocates nothing and its
/// resident footprint does not depend on the op count.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 36;  // ~69 s; larger values clamp
  static constexpr std::size_t kBuckets = kSub * (kMaxExp - kSubBits + 2);
  static constexpr std::size_t kBytes = kBuckets * sizeof(std::uint32_t);

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::int64_t ns) {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Nearest-rank quantile in microseconds (bucket midpoint); 0 if empty.
  [[nodiscard]] double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const double rank_d = std::ceil(q * static_cast<double>(count_));
    const std::uint64_t rank = rank_d < 1.0 ? 1 : static_cast<std::uint64_t>(rank_d);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint_ns(i) * 1e-3;
    }
    return midpoint_ns(counts_.size() - 1) * 1e-3;
  }

 private:
  [[nodiscard]] static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    int e = 63 - __builtin_clzll(v);
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (std::uint64_t{2} << kMaxExp) - 1;
    }
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(e - kSubBits) * kSub +
                                    sub);
  }
  [[nodiscard]] static double midpoint_ns(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::uint64_t octave = (i - kSub) / kSub;  // e − kSubBits
    const std::uint64_t sub = (i - kSub) % kSub;
    const double width = static_cast<double>(std::uint64_t{1} << octave);
    return static_cast<double>(kSub + sub) * width + width / 2;
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// getrusage(RUSAGE_SELF) totals the per-layer report differences.
struct ProcCounters {
  double task_clock_s = 0;  // user + system CPU of every thread
  std::uint64_t ctx_switches = 0;
  std::uint64_t page_faults = 0;
};
[[nodiscard]] ProcCounters proc_counters();

/// Resident set of this process in bytes (/proc/self/statm).
[[nodiscard]] std::uint64_t resident_bytes();

/// Filesystem type of `path` as statfs names it ("ext4", "tmpfs", ...).
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// Flush every dirty page of the filesystem holding `path` (syncfs), so
/// write-back left by set-up or an earlier run does not land in a timed
/// window's fsyncs.
void flush_filesystem(const std::string& path);

/// Return freed heap pages to the kernel, so RSS reads what is live.
void release_free_heap();

}  // namespace servebench
