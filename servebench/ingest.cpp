#include "ingest.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>

#include "service/ingest.hpp"
#include "util/assert.hpp"

namespace servebench {

using dmis::service::ClientOp;
using dmis::service::IngestQueue;

namespace {

/// Flags the service thread raises for the producers, in phase order.
struct Control {
  std::atomic<bool> settling{false};     // churn reserve may be spent
  std::atomic<bool> stopping{false};     // submit nothing more
  std::atomic<bool> aborted{false};      // the service failed; do not wait
  std::atomic<bool> ran_dry{false};      // a source hit its settle reserve
  std::atomic<bool> exhausted{false};    // a source has no ops left at all
  std::atomic<unsigned> done{0};         // producers finished (all acked)
};

/// Pin the calling thread to one CPU (modulo the CPUs online), so the
/// service thread and each producer keep their own core from run to run.
void pin_to_cpu(unsigned cpu) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % static_cast<unsigned>(online), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The timed window [begin_ns, begin_ns + count · slice_ns), in ns since the
/// phase started, cut into equal slices.
struct Slices {
  std::int64_t begin_ns = 0;
  std::int64_t slice_ns = 0;
  std::int64_t count = 0;

  /// Slice of an op submitted at `ns`, or −1 outside the window.
  [[nodiscard]] std::int64_t of(std::int64_t ns) const {
    const std::int64_t off = ns - begin_ns;
    return off < 0 || off >= count * slice_ns ? -1 : off / slice_ns;
  }
};

/// One closed-loop client: keeps `window` ops in flight, and times each op
/// from just before submit() until it sees the ack that covers it.
void producer_loop(unsigned p, const IngestPlan& plan, IngestQueue& queue,
                   OpSource& source, Control& control, Clock::time_point t0,
                   const Slices& slices, std::vector<LatencyHistogram>& hists,
                   std::vector<std::int64_t>* submit_ns, std::uint64_t& sent_out) {
  pin_to_cpu(1 + p);
  const std::size_t window = plan.spec->window;
  std::vector<Clock::time_point> submitted_at(window);
  std::vector<std::int64_t> slice_of(window, -1);
  std::uint64_t sent = 0;
  std::uint64_t seen = 0;
  ClientOp op;
  while (!control.aborted.load(std::memory_order_acquire)) {
    const std::uint64_t acked = queue.acked(p);
    if (acked != seen) {
      const Clock::time_point now = Clock::now();
      for (std::uint64_t j = seen; j < acked; ++j)
        if (slice_of[j % window] >= 0)
          hists[static_cast<std::size_t>(slice_of[j % window])].record(
              ns_between(submitted_at[j % window], now));
      seen = acked;
    }
    if (control.stopping.load(std::memory_order_acquire)) {
      if (seen == sent) break;
      std::this_thread::yield();
      continue;
    }
    if (sent - seen >= window) {  // window full: wait for acks
      std::this_thread::yield();
      continue;
    }
    if (!control.settling.load(std::memory_order_acquire) &&
        source.remaining() <= plan.settle_reserve_ops) {
      control.ran_dry.store(true, std::memory_order_release);
      continue;
    }
    if (!source.next(op)) {
      control.exhausted.store(true, std::memory_order_release);
      continue;
    }
    const Clock::time_point t = Clock::now();
    const std::int64_t t_ns = ns_between(t0, t);
    submitted_at[sent % window] = t;
    slice_of[sent % window] = slices.of(t_ns);
    if (submit_ns != nullptr) submit_ns->push_back(t_ns);
    queue.submit(p, op);
    ++sent;
  }
  sent_out = sent;
  control.done.fetch_add(1, std::memory_order_acq_rel);
}

std::uint64_t total_waits(const IngestQueue& queue) {
  std::uint64_t waits = 0;
  for (unsigned p = 0; p < queue.producers(); ++p) waits += queue.backpressure_waits(p);
  return waits;
}

}  // namespace

IngestResult run_ingest(const IngestPlan& plan, dmis::service::MisService& service,
                        std::vector<std::unique_ptr<OpSource>>& sources,
                        Replica* replica) {
  const WorkloadSpec& spec = *plan.spec;
  DMIS_ASSERT(sources.size() == spec.producers && spec.producers <= 2);
  // Settling waits for a tail shorter than the cadence, or it never ends.
  DMIS_ASSERT(spec.checkpoint_every_ops == 0 ||
              spec.settle_tail_ops < spec.checkpoint_every_ops);
  IngestResult result;

  dmis::service::IngestOptions options;
  options.producers = spec.producers;
  options.max_batch_ops = max_batch_ops(spec);
  // A producer never has more than its window in flight, so submit() never
  // meets a full ring.
  options.ring_capacity = std::bit_ceil(spec.window);
  IngestQueue queue(options);
  Control control;

  Slices slices;
  slices.begin_ns = static_cast<std::int64_t>(plan.warm_s * 1e9);
  slices.count = std::max<std::int64_t>(1, std::llround(plan.seconds));
  slices.slice_ns = static_cast<std::int64_t>(plan.seconds * 1e9) / slices.count;
  std::vector<std::vector<LatencyHistogram>> hists(
      spec.producers, std::vector<LatencyHistogram>(static_cast<std::size_t>(slices.count)));
  std::vector<std::uint64_t> sent(spec.producers, 0);
  if (plan.traced) {
    // Sized up front so a producer never reallocates mid-run (only touched
    // pages become resident).
    const double est_ops = 1.5e6 * (plan.warm_s + plan.seconds + 2.0);
    result.submit_ns.resize(spec.producers);
    for (auto& v : result.submit_ns) v.reserve(static_cast<std::size_t>(est_ops));
    result.recorded.reserve(static_cast<std::size_t>(est_ops) * spec.producers,
                            static_cast<std::size_t>(est_ops));
    result.spans.reserve(static_cast<std::size_t>(est_ops / 4));
    result.batch_ends.reserve(static_cast<std::size_t>(est_ops / 4));
  }

  pin_to_cpu(0);  // this is the service thread
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(spec.producers);
  for (unsigned p = 0; p < spec.producers; ++p)
    producers.emplace_back(producer_loop, p, std::cref(plan), std::ref(queue),
                           std::ref(*sources[p]), std::ref(control), t0,
                           std::cref(slices), std::ref(hists[p]),
                           plan.traced ? &result.submit_ns[p] : nullptr,
                           std::ref(sent[p]));

  enum class Phase { kWarm, kWindow, kSettle, kStop } phase = Phase::kWarm;
  const std::int64_t warm_ns = slices.begin_ns;
  const std::int64_t end_ns = slices.begin_ns + slices.count * slices.slice_ns;
  std::int64_t next_slice = 1;  // next slice boundary the service records
  std::uint64_t lsn_slice = 0;
  Clock::time_point t_slice;
  const std::uint64_t lsn_start = service.lsn();
  std::uint64_t lsn_open = 0;
  std::uint64_t waits_open = 0;
  std::uint64_t shipped_open = 0;
  Clock::time_point t_open;
  ProcCounters proc_open;
  bool sampled = false;
  bool prev_empty = false;
  std::int64_t prev_iter_ns = 0;

  const auto sample = [&] {
    result.sampled_at_ops = service.lsn() - lsn_start;
    result.rss_bytes = resident_bytes();
    result.disk_bytes = service.wal_bytes_appended() + service.checkpoint_bytes();
    sampled = true;
  };
  const auto sample_due = [&] {
    return service.lsn() - lsn_start >= spec.sample_at_ops &&
           (spec.checkpoint_every_ops == 0 ||
            service.checkpoints_taken() >= spec.sample_at_ops / spec.checkpoint_every_ops);
  };
  const auto fail = [&](const char* where, const std::string& error) {
    result.ok = false;
    result.error = std::string(where) + ": " + error;
  };

  std::string error;
  const auto timed_checkpoint = [&] {
    const Clock::time_point c0 = Clock::now();
    if (!service.checkpoint(&error)) {
      fail("checkpoint", error);
      return false;
    }
    result.checkpoint_s.push_back(seconds_between(c0, Clock::now()));
    return true;
  };

  dmis::core::Batch batch;
  batch.reserve(options.max_batch_ops,
                options.max_batch_ops * ClientOp::kMaxInlineNeighbors);
  while (result.ok) {
    const Clock::time_point now = Clock::now();
    const std::int64_t now_ns = ns_between(t0, now);
    if (plan.traced && phase == Phase::kWindow && prev_empty)
      result.idle_ns += now_ns - prev_iter_ns;
    prev_iter_ns = now_ns;

    if (phase == Phase::kWarm && now_ns >= warm_ns) {
      lsn_open = service.lsn();
      waits_open = total_waits(queue);
      shipped_open = replica != nullptr ? replica->shipper.stats().bytes_shipped : 0;
      proc_open = proc_counters();
      t_open = t_slice = now;
      lsn_slice = lsn_open;
      phase = Phase::kWindow;
    }
    if (phase == Phase::kWindow && next_slice <= slices.count &&
        now_ns >= slices.begin_ns + next_slice * slices.slice_ns) {
      result.slice_ops_per_s.push_back(static_cast<double>(service.lsn() - lsn_slice) /
                                       seconds_between(t_slice, now));
      lsn_slice = service.lsn();
      t_slice = now;
      ++next_slice;
    }
    const bool window_done = plan.crash_at_ops > 0
                                 ? service.lsn() - lsn_start >= plan.crash_at_ops
                                 : now_ns >= end_ns;
    if (phase == Phase::kWindow &&
        (window_done || control.ran_dry.load(std::memory_order_acquire))) {
      result.window_s = seconds_between(t_open, now);
      result.window_ops = service.lsn() - lsn_open;
      const ProcCounters proc_close = proc_counters();
      result.proc_window.task_clock_s = proc_close.task_clock_s - proc_open.task_clock_s;
      result.proc_window.ctx_switches = proc_close.ctx_switches - proc_open.ctx_switches;
      result.proc_window.page_faults = proc_close.page_faults - proc_open.page_faults;
      result.backpressure_waits = total_waits(queue) - waits_open;
      if (replica != nullptr)
        result.shipped_bytes = replica->shipper.stats().bytes_shipped - shipped_open;
      result.stream_ran_dry = control.ran_dry.load(std::memory_order_acquire);
      if (!sampled) sample();
      if (plan.crash_at_ops > 0) {
        // One checkpoint, so the crash leaves the same replay tail
        // (settle_tail_ops plus what was in flight) on every run.
        if (!timed_checkpoint()) break;
        control.settling.store(true, std::memory_order_release);
        phase = Phase::kSettle;
      } else {
        control.stopping.store(true, std::memory_order_release);
        phase = Phase::kStop;
      }
    }
    if (phase == Phase::kSettle &&
        (service.lsn() - service.last_checkpoint_lsn() >= spec.settle_tail_ops ||
         control.exhausted.load(std::memory_order_acquire))) {
      control.stopping.store(true, std::memory_order_release);
      phase = Phase::kStop;
    }
    // A producer counts itself done only once every op it sent is acked, so
    // the queue is empty here.
    if (phase == Phase::kStop &&
        control.done.load(std::memory_order_acquire) == spec.producers)
      break;

    BatchSpan span;
    span.drain_begin = now_ns;
    const std::size_t drained = queue.drain(batch);
    if (drained == 0) {
      if (phase == Phase::kWindow) ++result.empty_drains;
      prev_empty = true;
      continue;
    }
    prev_empty = false;
    if (phase == Phase::kWindow) ++result.window_batches;
    if (plan.traced) span.drain_end = ns_between(t0, Clock::now());

    if (!service.apply(batch, &error)) {
      fail("apply", error);
      break;
    }
    if (plan.traced) span.apply_end = ns_between(t0, Clock::now());
    span.checkpoint_end = span.apply_end;
    // The same rule checkpoint_interval_ops applies inside apply(), driven
    // from here so the checkpoint is its own span (and still before the ack).
    if (spec.checkpoint_every_ops > 0 &&
        service.lsn() - service.last_checkpoint_lsn() >= spec.checkpoint_every_ops) {
      if (!timed_checkpoint()) break;
      span.checkpointed = true;
      if (plan.traced) span.checkpoint_end = ns_between(t0, Clock::now());
    }
    queue.ack();
    if (plan.traced) span.ack_end = ns_between(t0, Clock::now());
    span.ship_end = span.poll_end = span.ack_end;
    if (replica != nullptr) {
      if (!replica->shipper.drain(&error)) {
        fail("ship", error);
        break;
      }
      if (plan.traced) span.ship_end = ns_between(t0, Clock::now());
      if (!replica->follower.poll(&error)) {
        fail("poll", error);
        break;
      }
      if (plan.traced) span.poll_end = ns_between(t0, Clock::now());
      const std::uint64_t lag = service.lsn() - replica->follower.applied_lsn();
      if (phase == Phase::kWindow && lag > result.lag_ops_max) result.lag_ops_max = lag;
    }
    if (plan.traced) {
      span.ops = static_cast<std::uint32_t>(drained);
      span.in_window = phase == Phase::kWindow;
      for (unsigned p = 0; p < spec.producers; ++p) span.lane_acked[p] = queue.acked(p);
      result.spans.push_back(span);
      append_ops(result.recorded, batch, 0, batch.size());
      result.batch_ends.push_back(result.recorded.size());
    }
    if (!sampled && sample_due()) sample();
  }

  if (!result.ok) control.aborted.store(true, std::memory_order_release);
  for (std::thread& t : producers) t.join();

  result.ack_slices.resize(static_cast<std::size_t>(slices.count));
  for (unsigned p = 0; p < spec.producers; ++p) {
    for (std::size_t k = 0; k < result.ack_slices.size(); ++k)
      result.ack_slices[k].merge(hists[p][k]);
    result.attempted += sent[p];
    result.acked += queue.acked(p);
  }
  return result;
}

}  // namespace servebench
