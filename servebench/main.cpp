// servebench — end-to-end serving benchmark for MisService.
//
//   servebench --workload W --seed S --seconds T --trace 0|1 --run-dir D
//              [--fsync-delay-us U] [--spans-out F] [--window W]
//
// Producer threads submit through IngestQueue; this thread is the service
// thread (drain → MisService::apply → checkpoint at the workload's cadence
// → ack → ship/poll a follower). The load is closed-loop: each producer
// keeps a fixed window of ops in flight. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
// (which also runs an untraced phase to measure the tracing overhead).
// README.md in this directory defines every metric and workload.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "ingest.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "service/checkpoint.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

namespace fs = std::filesystem;

/// setup_s is the median of at least kSetupReps set-ups, and of more (up to
/// kSetupRepsMax) while their total stays under kSetupBudgetS: a set-up of a
/// few ms is otherwise a median of three noisy samples.
constexpr int kSetupReps = 3;
constexpr int kSetupRepsMax = 31;
constexpr double kSetupBudgetS = 1.0;
/// The set-up checkpoint stands for the bulk load that built the initial
/// graph; the service's first op then has this lsn. It is 1, not 0, because
/// LogShipper counts a checkpoint at lsn 0 as already shipped, and a follower
/// of a leader bootstrapped there would cold-start from an empty engine.
constexpr std::uint64_t kSetupLsn = 1;
/// The crash phase applies this many ops from the set-up state before its
/// checkpoint and tail, so the directory recovery_s reads is the same
/// however fast the timed window ran.
constexpr std::uint64_t kCrashAtOps = 200'000;
/// recovery_s is the median of two blocks of recoveries, one before and one
/// after the timed phases, so that it spans the run rather than one stretch
/// of host speed. A block makes at least kRecoveryReps recoveries, and more
/// (up to kRecoveryRepsMax) until kRecoveryBudgetS has passed, so that a
/// recovery of 0.1 s is not a median of a handful.
constexpr int kRecoveryReps = 5;
constexpr int kRecoveryRepsMax = 21;
constexpr double kRecoveryBudgetS = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;
  double fsync_delay_us = 0;
  std::string spans_out;
  std::size_t window = 0;  // ops in flight per producer; 0 = the workload's own
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: servebench --workload W --seed S --seconds T "
               "--trace 0|1 --run-dir D [--fsync-delay-us U] [--spans-out F] [--window W]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), &end, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), &end);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--run-dir") a.run_dir = value;
    else if (flag == "--fsync-delay-us") a.fsync_delay_us = std::strtod(value.c_str(), &end);
    else if (flag == "--spans-out") a.spans_out = value;
    else if (flag == "--window") a.window = std::strtoull(value.c_str(), &end, 10);
    else usage(("unknown flag " + flag).c_str());
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  if (a.run_dir.empty()) usage("--run-dir is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Flat JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The metrics map: {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    Json m;
    m.num("value", value).str("unit", unit);
    json_.raw(name, m.done());
  }
  [[nodiscard]] std::string done() const { return json_.done(); }

 private:
  Json json_;
};

/// One latency quantile per non-empty slice of the window.
std::vector<double> slice_values(const std::vector<LatencyHistogram>& slices, double q) {
  std::vector<double> per_slice;
  for (const LatencyHistogram& h : slices)
    if (h.count() > 0) per_slice.push_back(h.quantile_us(q));
  return per_slice;
}

/// Median over the window's one-second slices of a latency quantile: one
/// burst of host noise moves a slice, not the result.
double slice_quantile_us(const std::vector<LatencyHistogram>& slices, double q) {
  return median(slice_values(slices, q));
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.size() > 1 ? ", " : "", v);
    out += buf;
  }
  return out + "]";
}

/// A service (and follower) opened over a fresh directory that holds only a
/// hard link to the set-up checkpoint.
struct Serving {
  std::string dir;
  std::string follower_dir;
  std::optional<dmis::service::MisService> service;
  std::unique_ptr<Replica> replica;
};

/// Set-up products: the checkpoint directory every service starts from and
/// the inputs the producers replay.
struct Inputs {
  std::string seed_dir;
  std::vector<std::unique_ptr<OpSource>> sources;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), pseed_(priority_seed(args.seed)) {
    if (args.fsync_delay_us > 0) wal_factory_ = delayed_sync_factory(args.fsync_delay_us);
  }

  int run();

 private:
  [[nodiscard]] std::size_t stream_ops() const {
    const auto timed =
        static_cast<std::size_t>(spec_.stream_ops_per_s * (kWarmS + args_.seconds));
    return std::max<std::size_t>(timed, kCrashAtOps) + settle_reserve();
  }
  /// Settling needs settle_tail_ops after the post-window checkpoint, plus
  /// whatever is in flight when the producers are told to stop.
  [[nodiscard]] std::size_t settle_reserve() const {
    return static_cast<std::size_t>(spec_.settle_tail_ops) +
           2 * spec_.window * spec_.producers + max_batch_ops(spec_);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (fs::path(args_.run_dir) / name).string();
  }

  bool make_inputs(const std::string& seed_dir, Inputs& in, std::string* error);
  bool open_serving(const Inputs& in, const std::string& tag, Serving& out,
                    std::string* error);

  struct Phase {
    IngestResult ingest;
    bool correct = false;
    std::string why;
    double ops_per_s = 0;
    EngineState final;
    RecoveryRuns recovery;
    double promote_s = 0;  // crash phase only
    std::uint64_t overlay_nodes = 0;
    std::uint64_t overlay_added = 0;
    std::uint64_t overlay_removed = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t lsn_start = 0;
  };
  /// A timed phase (crash_at_ops 0), or the crash phase: kCrashAtOps ops,
  /// then the crash, the first block of timed recoveries, and the follower's
  /// catch-up and promotion.
  Phase run_phase(Serving& serving, Inputs& in, bool traced, std::uint64_t crash_at_ops);
  /// The crash phase's second block of recoveries. False (with `ph.why`)
  /// when a recovery differs from the crashed leader.
  bool finish_crash(Serving& serving, Phase& ph);
  void add_layer_metrics(Metrics& m, const Phase& traced, const Phase& untraced,
                         const Phase& crash, Inputs& in, std::string* why, bool* correct);
  void write_spans(const IngestResult& r) const;
  void print_config() const;

  static constexpr double kWarmS = 1.0;

  const Args& args_;
  const WorkloadSpec& spec_;
  std::uint64_t pseed_;
  dmis::util::FileFactory wal_factory_;
};

bool Bench::make_inputs(const std::string& seed_dir, Inputs& in, std::string* error) {
  fs::remove_all(seed_dir);
  fs::create_directories(seed_dir);
  in.seed_dir = seed_dir;
  dmis::graph::DynamicGraph g = make_graph(spec_, args_.seed);
  in.sources.clear();
  if (spec_.ops == Ops::kPartitionToggles) {
    for (unsigned p = 0; p < spec_.producers; ++p)
      in.sources.push_back(std::make_unique<ToggleSource>(g, p, spec_.producers, args_.seed));
  } else {
    in.sources.push_back(std::make_unique<StreamSource>(
        make_churn_stream(spec_, g, stream_ops(), args_.seed)));
  }
  const dmis::core::CascadeEngine engine(std::move(g), pseed_);
  dmis::service::Checkpointer checkpointer(seed_dir);
  return checkpointer.checkpoint(engine, kSetupLsn, error);
}

bool Bench::open_serving(const Inputs& in, const std::string& tag, Serving& out,
                         std::string* error) {
  out.dir = path("leader-" + tag);
  out.follower_dir = path("follower-" + tag);
  fs::remove_all(out.dir);
  fs::remove_all(out.follower_dir);
  fs::create_directories(out.dir);
  const std::string checkpoint = dmis::service::checkpoint_path(in.seed_dir, kSetupLsn);
  fs::create_hard_link(checkpoint, fs::path(out.dir) / fs::path(checkpoint).filename());

  dmis::service::ServiceConfig config;
  config.dir = out.dir;
  config.priority_seed = pseed_;
  config.fsync = spec_.fsync;
  config.segment_bytes = kSegmentBytes;
  config.checkpoint_interval_ops = 0;  // driven from the service loop
  config.file_factory = wal_factory_;
  out.service = dmis::service::MisService::open(config, error);
  if (!out.service.has_value()) return false;
  if (!spec_.replicate) return true;

  dmis::service::FollowerOptions follower_options;
  follower_options.priority_seed = pseed_;
  std::optional<dmis::service::FollowerService> follower =
      dmis::service::FollowerService::open(out.follower_dir, follower_options, error);
  if (!follower.has_value()) return false;
  out.replica = std::make_unique<Replica>(std::move(*follower), out.dir);
  out.replica->shipper.attach_durable_cursor(&*out.service);
  // The follower starts caught up: ship the set-up checkpoint now.
  return out.replica->shipper.drain(error) && out.replica->follower.poll(error);
}

Bench::Phase Bench::run_phase(Serving& serving, Inputs& in, bool traced,
                              std::uint64_t crash_at_ops) {
  Phase ph;
  for (const auto& source : in.sources) source->rewind();
  dmis::service::MisService& service = *serving.service;
  ph.lsn_start = service.lsn();
  IngestPlan plan;
  plan.spec = &spec_;
  plan.warm_s = kWarmS;
  plan.seconds = args_.seconds;
  plan.traced = traced;
  plan.settle_reserve_ops = settle_reserve();
  plan.crash_at_ops = crash_at_ops;
  if (crash_at_ops > 0) plan.warm_s = 0;
  flush_filesystem(args_.run_dir);
  ph.ingest = run_ingest(plan, service, in.sources, serving.replica.get());
  const IngestResult& r = ph.ingest;
  if (!r.ok) {
    ph.why = r.error;
    return ph;
  }
  ph.ops_per_s = interquartile_mean(r.slice_ops_per_s);

  // Checks, outside the timed window.
  const dmis::core::CascadeEngine& engine = service.engine();
  if (!oracle_check(engine, &ph.why)) return ph;
  if (spec_.ops == Ops::kPartitionToggles &&
      !history_independence_check(engine, spec_, in.sources, pseed_, &ph.why))
    return ph;
  ph.final = capture_state(engine, service.lsn());
  const dmis::graph::DynamicGraph& g = engine.graph();
  ph.overlay_nodes = g.overlay_nodes();
  ph.overlay_added = g.overlay_added_edges();
  ph.overlay_removed = g.overlay_removed_edges();
  ph.checkpoints = service.checkpoints_taken();
  ph.checkpoint_bytes = service.checkpoint_bytes();
  if (crash_at_ops == 0) {
    ph.correct = true;
    return ph;
  }

  // Crash: drop the leader without close().
  if (serving.replica != nullptr) serving.replica->shipper.detach_durable_cursor();
  serving.service.reset();

  // Write back what the run left dirty first, so the disk's writeback does
  // not compete with the timed recoveries. The directory's bytes are the
  // same either way: the crash keeps the page cache, as a process death does.
  flush_filesystem(args_.run_dir);
  release_free_heap();
  measure_recovery(serving.dir, pseed_, kRecoveryReps, kRecoveryRepsMax, kRecoveryBudgetS,
                   ph.final, ph.recovery);
  if (!ph.recovery.matches) {
    ph.why = ph.recovery.why;
    return ph;
  }
  if (serving.replica != nullptr) {
    std::string error;
    Replica& rep = *serving.replica;
    if (!rep.shipper.drain(&error) || !rep.follower.poll(&error)) {
      ph.why = "follower catch-up failed: " + error;
      return ph;
    }
    dmis::service::ServiceConfig promoted_config;
    promoted_config.dir = serving.follower_dir;
    promoted_config.priority_seed = pseed_;
    promoted_config.fsync = spec_.fsync;
    promoted_config.segment_bytes = kSegmentBytes;
    const Clock::time_point t0 = Clock::now();
    std::optional<dmis::service::MisService> promoted =
        rep.follower.promote(promoted_config, &error);
    ph.promote_s = seconds_between(t0, Clock::now());
    if (!promoted.has_value()) {
      ph.why = "promote failed: " + error;
      return ph;
    }
    if (!same_state(promoted->engine(), promoted->lsn(), ph.final)) {
      ph.why = "promoted follower differs from the crashed leader";
      return ph;
    }
  }
  // Only the leader's directory stays, for finish_crash().
  serving.replica.reset();
  ph.correct = true;
  return ph;
}

bool Bench::finish_crash(Serving& serving, Phase& ph) {
  flush_filesystem(args_.run_dir);
  release_free_heap();
  measure_recovery(serving.dir, pseed_, kRecoveryReps, kRecoveryRepsMax, kRecoveryBudgetS,
                   ph.final, ph.recovery);
  if (!ph.recovery.matches) {
    ph.why = ph.recovery.why;
    return false;
  }
  return true;
}

void Bench::print_config() const {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string fstype = filesystem_type(args_.run_dir);
  Json c;
  c.str("workload", spec_.name)
      .count("seed", args_.seed)
      .count("priority_seed", pseed_)
      .str("graph_family", family_name(spec_.family))
      .count("n", spec_.n)
      .num("avg_degree", spec_.avg_degree);
  if (spec_.family == Family::kChungLu) c.num("exponent", spec_.exponent);
  c.str("ops", spec_.ops == Ops::kPartitionToggles ? "partition-toggles" : "churn")
      .str("fsync_policy", fsync_name(spec_.fsync))
      .count("checkpoint_every_ops", spec_.checkpoint_every_ops)
      .boolean("replicate", spec_.replicate)
      .count("producers", spec_.producers)
      .count("window_per_producer", spec_.window)
      .count("max_batch_ops", max_batch_ops(spec_))
      .count("threads", spec_.producers + 1)
      .count("nproc", static_cast<std::uint64_t>(nproc))
      .boolean("threads_within_nproc", spec_.producers + 1 <= static_cast<unsigned>(nproc))
      .str("run_dir_fs", fstype)
      .boolean("run_dir_is_tmpfs", fstype == "tmpfs")
      .str("build_type", SERVEBENCH_BUILD_TYPE)
      .num("warm_s", kWarmS)
      .num("seconds", args_.seconds)
      .count("setup_reps_min", args_.trace ? 1 : kSetupReps)
      .count("crash_at_ops", kCrashAtOps)
      .count("recovery_reps_min", kRecoveryReps)
      .num("fsync_delay_us", args_.fsync_delay_us)
      .boolean("trace", args_.trace);
  std::printf("config %s\n", c.done().c_str());
  if (fstype == "tmpfs")
    std::fprintf(stderr, "warning: run directory is on tmpfs — fsync is free there, "
                         "so durable-churn measures nothing of the WAL\n");
}

void Bench::write_spans(const IngestResult& r) const {
  if (args_.spans_out.empty()) return;
  std::FILE* f = std::fopen(args_.spans_out.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "drain_begin_ns,drain_end_ns,apply_end_ns,checkpoint_end_ns,ack_end_ns,"
                  "ship_end_ns,poll_end_ns,ops,in_window,checkpointed\n");
  for (const BatchSpan& s : r.spans)
    std::fprintf(f, "%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                    ",%" PRId64 ",%u,%d,%d\n",
                 s.drain_begin, s.drain_end, s.apply_end, s.checkpoint_end, s.ack_end,
                 s.ship_end, s.poll_end, s.ops, s.in_window ? 1 : 0, s.checkpointed ? 1 : 0);
  std::fclose(f);
}

void Bench::add_layer_metrics(Metrics& m, const Phase& t, const Phase& u, const Phase& crash,
                              Inputs& in, std::string* why, bool* correct) {
  const IngestResult& r = t.ingest;
  const double window_ops = static_cast<double>(std::max<std::uint64_t>(r.window_ops, 1));

  // service.ingest: queue wait per op (submit → drain returned), batch size,
  // backpressure, and the consumer's idle share.
  LatencyHistogram queue_wait;
  std::vector<std::uint64_t> lane_seq(spec_.producers, 0);
  std::uint64_t window_batches = 0;
  std::vector<double> apply_us;
  std::vector<double> ship_us;
  std::vector<double> poll_us;
  double apply_busy_s = 0;
  double repl_busy_s = 0;
  for (const BatchSpan& s : r.spans) {
    for (unsigned p = 0; p < spec_.producers; ++p) {
      for (; lane_seq[p] < s.lane_acked[p]; ++lane_seq[p])
        if (s.in_window) queue_wait.record(s.drain_end - r.submit_ns[p][lane_seq[p]]);
    }
    if (!s.in_window) continue;
    ++window_batches;
    apply_us.push_back((s.apply_end - s.drain_end) * 1e-3);
    apply_busy_s += (s.apply_end - s.drain_end) * 1e-9;
    if (spec_.replicate) {
      ship_us.push_back((s.ship_end - s.ack_end) * 1e-3);
      poll_us.push_back((s.poll_end - s.ship_end) * 1e-3);
      repl_busy_s += (s.poll_end - s.ack_end) * 1e-9;
    }
  }
  m.add("ingest.queue_wait_us_p50", queue_wait.quantile_us(0.50), "us");
  m.add("ingest.queue_wait_us_p99", queue_wait.quantile_us(0.99), "us");
  m.add("ingest.ops_per_drain", window_ops / static_cast<double>(std::max<std::uint64_t>(window_batches, 1)), "ops");
  m.add("ingest.backpressure_waits", static_cast<double>(r.backpressure_waits), "count");
  m.add("ingest.consumer_idle_frac", r.window_s > 0 ? r.idle_ns * 1e-9 / r.window_s : 0, "ratio");

  // Decomposed replay: the same batches through each lower layer's public
  // entry, on fresh instances started from the set-up state.
  const std::string replay_dir = path("replay-engine");
  fs::remove_all(replay_dir);
  fs::create_directories(replay_dir);
  const std::string checkpoint = dmis::service::checkpoint_path(in.seed_dir, kSetupLsn);
  fs::create_hard_link(checkpoint, fs::path(replay_dir) / fs::path(checkpoint).filename());
  const LayerReplay wal = replay_wal(spec_, r, path("replay-wal"), wal_factory_);
  const LayerReplay borrowed = replay_engine(r, replay_dir, pseed_, true, t.final);
  const LayerReplay materialized = replay_engine(r, replay_dir, pseed_, false, t.final);
  fs::remove_all(replay_dir);
  for (const LayerReplay* l : {&wal, &borrowed, &materialized}) {
    if (!l->matches && *correct) {
      *correct = false;
      *why = l->why;
    }
  }

  // service.apply, with its own overhead left after the WAL and engine.
  std::vector<double> a = apply_us;
  m.add("apply.us_p50", quantile(a, 0.50), "us");
  m.add("apply.us_p99", quantile(a, 0.99), "us");
  m.add("apply.busy_s", apply_busy_s, "s");
  m.add("apply.self_s", apply_busy_s - wal.busy_s - borrowed.busy_s, "s");

  // service.wal
  std::vector<double> w = wal.call_us;
  m.add("wal.append_us_p50", quantile(w, 0.50), "us");
  m.add("wal.append_us_p99", quantile(w, 0.99), "us");
  m.add("wal.busy_s", wal.busy_s, "s");
  m.add("wal.busy_us_per_op", wal.busy_s * 1e6 / window_ops, "us/op");
  m.add("wal.records", static_cast<double>(wal.records), "count");
  m.add("wal.bytes_per_op", static_cast<double>(wal.bytes) / window_ops, "B/op");

  // core
  std::vector<double> e = borrowed.call_us;
  m.add("engine.apply_us_p50", quantile(e, 0.50), "us");
  m.add("engine.apply_us_p99", quantile(e, 0.99), "us");
  m.add("engine.busy_s", borrowed.busy_s, "s");
  m.add("engine.busy_us_per_op", borrowed.busy_s * 1e6 / window_ops, "us/op");
  m.add("engine.evaluated_per_op", static_cast<double>(borrowed.evaluated) / window_ops, "nodes/op");
  m.add("engine.adjustments_per_op", static_cast<double>(borrowed.adjustments) / window_ops, "nodes/op");
  m.add("engine.adjustments_per_evaluated",
        borrowed.evaluated > 0 ? static_cast<double>(borrowed.adjustments) /
                                     static_cast<double>(borrowed.evaluated)
                               : 0,
        "ratio");

  // graph
  m.add("graph.overlay_nodes", static_cast<double>(t.overlay_nodes), "count");
  m.add("graph.overlay_added_edges", static_cast<double>(t.overlay_added), "count");
  m.add("graph.overlay_removed_edges", static_cast<double>(t.overlay_removed), "count");
  m.add("graph.borrowed_apply_ratio",
        materialized.busy_s > 0 ? borrowed.busy_s / materialized.busy_s : 0, "ratio");

  // service.checkpoint (every checkpoint the phase took, settle included)
  std::vector<double> c = r.checkpoint_s;
  m.add("checkpoint.count", static_cast<double>(t.checkpoints), "count");
  m.add("checkpoint.s_p50", quantile(c, 0.50), "s");
  m.add("checkpoint.s_max", c.empty() ? 0 : *std::max_element(c.begin(), c.end()), "s");
  m.add("checkpoint.bytes", static_cast<double>(t.checkpoint_bytes), "B");

  // service.recovery (the crash phase's median-time repeat's breakdown)
  const dmis::service::RecoveryReport rec = crash.recovery.median_report();
  m.add("recovery.open_s", rec.open_s, "s");
  m.add("recovery.load_s", rec.load_s, "s");
  m.add("recovery.warm_s", rec.warm_s, "s");
  m.add("recovery.replay_s", rec.replay_s, "s");
  m.add("recovery.replayed_ops", static_cast<double>(rec.replayed_ops), "count");

  // service.replication
  m.add("repl.ship_us_p50", quantile(ship_us, 0.50), "us");
  m.add("repl.poll_us_p50", quantile(poll_us, 0.50), "us");
  m.add("repl.busy_s", repl_busy_s, "s");
  m.add("repl.bytes_shipped_per_op", static_cast<double>(r.shipped_bytes) / window_ops, "B/op");
  m.add("repl.lag_ops_max", static_cast<double>(r.lag_ops_max), "ops");
  m.add("repl.promote_s", crash.promote_s, "s");

  // process
  m.add("proc.task_clock_s", r.proc_window.task_clock_s, "s");
  m.add("proc.ctx_switches", static_cast<double>(r.proc_window.ctx_switches), "count");
  m.add("proc.page_faults", static_cast<double>(r.proc_window.page_faults), "count");

  m.add("trace.overhead_frac", u.ops_per_s > 0 ? (u.ops_per_s - t.ops_per_s) / u.ops_per_s : 0,
        "ratio");
}

int Bench::run() {
  std::error_code ec;
  fs::create_directories(args_.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create run dir %s: %s\n", args_.run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  print_config();
  std::string error;
  Inputs in;
  Serving serving;
  std::vector<double> setup_s;
  const int setup_reps = args_.trace ? 1 : kSetupReps;
  double setup_total_s = 0;
  for (int k = 0; k < setup_reps ||
                  (!args_.trace && k < kSetupRepsMax && setup_total_s < kSetupBudgetS);
       ++k) {
    if (k > 0) {  // discard the previous repeat's products
      serving = Serving{};
      in = Inputs{};
      release_free_heap();
    }
    const Clock::time_point t0 = Clock::now();
    if (!make_inputs(path("seed"), in, &error) ||
        !open_serving(in, "a", serving, &error)) {
      std::fprintf(stderr, "error: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_total_s += setup_s.back();
  }
  release_free_heap();

  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  const auto account = [&](const Phase& ph) {
    attempted += ph.ingest.attempted;
    acked += ph.ingest.acked;
    if (!ph.correct && correct) {
      correct = false;
      why = ph.why;
    }
  };
  const auto drop = [](Serving& s) {
    const std::string dirs[] = {s.dir, s.follower_dir};
    s = Serving{};
    for (const std::string& dir : dirs) fs::remove_all(dir);
  };
  // Every phase starts from the set-up state: fresh directories and a
  // trimmed heap. The crash phase goes first; its leader's directory is
  // recovered once now and once more after the timed phases.
  const auto open_phase = [&](const std::string& tag, Serving& s) {
    release_free_heap();
    if (open_serving(in, tag, s, &error)) return true;
    std::fprintf(stderr, "error: set-up of phase %s failed: %s\n", tag.c_str(),
                 error.c_str());
    return false;
  };
  Serving crashed;
  if (!open_phase("c", crashed)) return 1;
  Phase crash = run_phase(crashed, in, false, kCrashAtOps);
  release_free_heap();
  const Phase first = run_phase(serving, in, false, 0);
  drop(serving);
  account(first);
  Phase traced;
  if (args_.trace) {
    if (!open_phase("b", serving)) return 1;
    traced = run_phase(serving, in, true, 0);
    drop(serving);
    account(traced);
  }
  if (crash.correct && !finish_crash(crashed, crash)) crash.correct = false;
  drop(crashed);
  account(crash);

  Metrics metrics;
  Json detail;
  if (!args_.trace) {
    const IngestResult& r = first.ingest;
    std::size_t bench_bytes = 0;
    for (const auto& s : in.sources) bench_bytes += s->footprint_bytes();
    bench_bytes += spec_.producers * r.ack_slices.size() * LatencyHistogram::kBytes;
    const double rss_mb =
        (static_cast<double>(r.rss_bytes) - static_cast<double>(bench_bytes)) / (1 << 20);
    metrics.add("ack_p50_us", slice_quantile_us(r.ack_slices, 0.50), "us");
    metrics.add("acked_ops_per_s", first.ops_per_s, "ops/s");
    metrics.add("recovery_s", median(crash.recovery.seconds), "s");
    metrics.add("disk_bytes_per_op",
                static_cast<double>(r.disk_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(r.sampled_at_ops, 1)),
                "B/op");
    metrics.add("serve_rss_mb", rss_mb, "MB");
    metrics.add("setup_s", median(setup_s), "s");
    std::uint64_t samples = 0;
    for (const LatencyHistogram& h : r.ack_slices) samples += h.count();
    // Reported, not bounded: see README.md ("Known limits").
    detail.num("ack_p99_us", slice_quantile_us(r.ack_slices, 0.99))
        .count("ack_samples", samples)
        .count("slices", r.slice_ops_per_s.size())
        .raw("slice_ops_per_s", json_list(r.slice_ops_per_s))
        .raw("slice_ack_p99_us", json_list(slice_values(r.ack_slices, 0.99)))
        .count("window_ops", r.window_ops)
        .num("ops_per_drain", static_cast<double>(r.window_ops) /
                                  static_cast<double>(std::max<std::uint64_t>(r.window_batches, 1)))
        .num("window_s", r.window_s)
        .count("sampled_at_ops", r.sampled_at_ops)
        .num("window_ops_per_s", static_cast<double>(r.window_ops) / r.window_s)
        .count("bench_owned_bytes", bench_bytes)
        .boolean("stream_ran_dry", r.stream_ran_dry)
        .count("setup_reps", setup_s.size())
        .count("checkpoints", first.checkpoints)
        .raw("recovery_runs_s", json_list(crash.recovery.seconds))
        .count("recovery_replayed_ops", crash.recovery.median_report().replayed_ops)
        .num("promote_s", crash.promote_s);
  } else {
    if (traced.ingest.ok)
      add_layer_metrics(metrics, traced, first, crash, in, &why, &correct);
    write_spans(traced.ingest);
    detail.num("untraced_ops_per_s", first.ops_per_s)
        .num("traced_ops_per_s", traced.ops_per_s)
        .count("spans", traced.ingest.spans.size());
  }
  fs::remove_all(args_.run_dir, ec);

  // A failed check fails every op of the run; unacked ops fail on their own.
  const std::uint64_t failed = correct ? attempted - acked : attempted;
  detail.boolean("correct", correct)
      .str("check", correct ? "ok" : why)
      .num("op_fail_ratio", attempted > 0 ? static_cast<double>(failed) /
                                                static_cast<double>(attempted)
                                          : 1.0);
  std::printf("detail %s\n", detail.done().c_str());
  if (!correct) std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());

  Json result;
  result.boolean("correct", correct)
      .count("attempted", std::max<std::uint64_t>(attempted, 1))
      .count("failed", failed)
      .raw("metrics", metrics.done());
  std::printf("%s\n", result.done().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const servebench::Args args = servebench::parse_args(argc, argv);
  servebench::WorkloadSpec spec = *servebench::find_workload(args.workload);
  if (args.window > 0) spec.window = args.window;
  servebench::Bench bench(args, spec);
  return bench.run();
}
