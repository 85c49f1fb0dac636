// Leader–follower replication, differentially checked the PR 5/6 way: a
// follower that tailed shipped WAL bytes (through drops, duplicates,
// reorders, torn shipments, local write faults, and process restarts on
// both ends) must be *identical* — graph, membership, MIS size, priority
// RNG state — to an in-memory reference engine fed the same batch prefix.
// Then the failover half: promote the follower, keep applying churn, and
// the promoted service must stay op-for-op equal to a leader that never
// crashed, and its directory must recover to the same state again.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "service/checkpoint.hpp"
#include "service/recovery.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using service::DirectTransport;
using service::FaultyTransport;
using service::FollowerOptions;
using service::FollowerService;
using service::FsyncPolicy;
using service::LogShipper;
using service::LogShipperOptions;
using service::MisService;
using service::ServiceConfig;
using service::TransportFaults;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / ("dmis_repl_" + name)).string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<core::Batch> make_stream(std::uint64_t seed, std::size_t total_ops,
                                     std::size_t ops_per_batch) {
  util::Rng rng(seed);
  graph::DynamicGraph g = graph::random_avg_degree(120, 6.0, rng);
  const workload::Trace grow = workload::grow_trace(g);
  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(g, config, seed + 1);

  std::vector<core::Batch> out;
  core::Batch current;
  const auto flush = [&] {
    if (!current.empty()) {
      out.push_back(current);
      current.clear();
    }
  };
  std::size_t ops = 0;
  for (const workload::GraphOp& op : grow) {
    workload::append_op(current, op);
    ++ops;
    if (current.size() >= ops_per_batch) flush();
  }
  while (ops < total_ops) {
    workload::append_op(current, gen.next());
    ++ops;
    if (current.size() >= ops_per_batch) flush();
  }
  flush();
  return out;
}

core::CascadeEngine reference(const std::vector<core::Batch>& batches,
                              std::size_t first, std::uint64_t priority_seed) {
  core::CascadeEngine engine(priority_seed);
  for (std::size_t i = 0; i < first; ++i) (void)core::apply_batch(engine, batches[i]);
  return engine;
}

void expect_same(const core::CascadeEngine& got, const core::CascadeEngine& want,
                 const std::string& where) {
  EXPECT_TRUE(got.graph() == want.graph()) << where;
  EXPECT_TRUE(got.membership() == want.membership()) << where;
  EXPECT_EQ(got.mis_size(), want.mis_size()) << where;
  EXPECT_TRUE(got.priorities().rng_state() == want.priorities().rng_state())
      << where << ": RNG diverged — future draws would differ";
}

ServiceConfig leader_config(const std::string& dir) {
  ServiceConfig config;
  config.dir = dir;
  config.priority_seed = 7;
  config.fsync = FsyncPolicy::kEveryBatch;
  config.segment_bytes = 16 << 10;  // force rotations so shipping chains segments
  return config;
}

FollowerOptions follower_options() {
  FollowerOptions options;
  options.priority_seed = 7;
  return options;
}

/// Pump the shipper and the follower until both report nothing left to do.
void settle(LogShipper& shipper, FollowerService& follower) {
  std::string error;
  ASSERT_TRUE(shipper.drain(&error)) << error;
  ASSERT_TRUE(follower.poll(&error)) << error;
}

TEST(Replication, LiveTailTracksLeaderAcrossRotations) {
  TempDir leader_dir("live_leader");
  TempDir follower_dir("live_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 1 << 10;  // small chunks: many shipments per segment
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(501, 3000, 8);
  std::uint64_t ops = 0;
  for (const core::Batch& batch : batches) {
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
    ops += batch.size();
    // Interleave shipping with ingest — the follower tails a *live*
    // segment, exercising refresh() growth and rotation advances.
    ASSERT_TRUE(shipper.drain(&error)) << error;
    ASSERT_TRUE(follower->poll(&error)) << error;
  }
  settle(shipper, *follower);

  ASSERT_TRUE(follower->has_engine());
  EXPECT_EQ(follower->applied_lsn(), ops);
  expect_same(follower->engine(), reference(batches, batches.size(), 7), "live tail");
  EXPECT_EQ(shipper.stats().rewinds, 0U);  // loss-free transport never rewinds
  EXPECT_GT(shipper.stats().delivered, 0U);
}

TEST(Replication, DurableCursorHoldsBackUnsyncedTail) {
  TempDir leader_dir("cursor_leader");
  TempDir follower_dir("cursor_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.fsync = FsyncPolicy::kInterval;  // batches land un-synced
  config.fsync_interval_records = 1u << 30;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(502, 800, 8);
  for (const core::Batch& batch : batches) ASSERT_TRUE(leader->apply(batch, &error));
  ASSERT_TRUE(shipper.drain(&error)) << error;
  ASSERT_TRUE(follower->poll(&error)) << error;

  // Nothing was fsynced since the segment header: the follower must not
  // have applied ops the leader itself could lose in a crash.
  EXPECT_EQ(follower->applied_lsn(), leader->durable_lsn());
  EXPECT_LT(follower->applied_lsn(), leader->lsn());

  // After an explicit checkpoint (which syncs), the tail becomes durable
  // and ships.
  ASSERT_TRUE(leader->checkpoint(&error)) << error;
  settle(shipper, *follower);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "after durable catch-up");
}

TEST(Replication, CheckpointShipsAndWarmStartsFollower) {
  TempDir leader_dir("warm_leader");
  TempDir follower_dir("warm_follower");
  std::string error;

  // Leader runs alone first, checkpointing often enough that truncation
  // deletes the early segments — a late-joining follower cannot replay
  // from lsn 0 and MUST warm-start from the shipped checkpoint.
  ServiceConfig config = leader_config(leader_dir.path);
  config.checkpoint_interval_ops = 600;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(503, 2500, 8);
  for (const core::Batch& batch : batches) ASSERT_TRUE(leader->apply(batch, &error));
  ASSERT_GT(leader->last_checkpoint_lsn(), 0U);
  {
    bool has_base0 = false;
    for (const service::SegmentInfo& seg : service::list_segments(leader_dir.path))
      if (seg.base_lsn == 0) has_base0 = true;
    ASSERT_FALSE(has_base0) << "truncation should have deleted the base segment";
  }

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  ASSERT_TRUE(follower->has_engine());
  EXPECT_GE(follower->stats().rewarms, 1U);
  EXPECT_GE(follower->stats().checkpoints_published, 1U);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "warm-started follower");

  // The follower directory is a valid service directory in its own right:
  // plain recovery on it lands on the same state.
  leader.reset();
  follower.reset();
  service::RecoveryManager recovery(follower_dir.path, {.priority_seed = 7});
  service::RecoveryReport report;
  auto recovered = recovery.recover(&report, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  expect_same(*recovered, reference(batches, batches.size(), 7),
              "recovery of follower dir");
}

/// Flips one bit in the first checkpoint chunk past the snapshot header it
/// carries, once, and records what the follower answered when that corrupt
/// file completed.
class BitFlipTransport final : public service::ShipmentTransport {
 public:
  BitFlipTransport(service::ShipmentTransport* inner, std::string follower_dir)
      : inner_(inner), follower_dir_(std::move(follower_dir)) {}

  std::optional<service::ShipAck> deliver(const service::Shipment& shipment) override {
    const bool checkpoint = shipment.kind == service::Shipment::Kind::kCheckpoint;
    if (!flipped_ && checkpoint && shipment.offset >= 4096 && !shipment.bytes.empty()) {
      service::Shipment bad = shipment;
      bad.bytes[bad.bytes.size() / 2] ^= 0x10;
      flipped_ = true;
      corrupt_id_ = shipment.id;
      return record(bad, inner_->deliver(bad));
    }
    return record(shipment, inner_->deliver(shipment));
  }

  bool flipped_ = false;
  std::uint64_t corrupt_id_ = 0;
  /// The ack for the chunk that completed the corrupt file, and whether the
  /// checkpoint was visible right after it.
  std::optional<std::uint64_t> corrupt_completion_have_;
  bool published_corrupt_ = false;

 private:
  std::optional<service::ShipAck> record(const service::Shipment& shipment,
                                         std::optional<service::ShipAck> ack) {
    const bool completes = shipment.offset + shipment.bytes.size() >= shipment.file_size;
    if (flipped_ && !corrupt_completion_have_.has_value() &&
        shipment.kind == service::Shipment::Kind::kCheckpoint &&
        shipment.id == corrupt_id_ && completes && ack.has_value()) {
      corrupt_completion_have_ = ack->have;
      published_corrupt_ = std::filesystem::exists(
          service::checkpoint_path(follower_dir_, shipment.id));
    }
    return ack;
  }

  service::ShipmentTransport* inner_;
  std::string follower_dir_;
};

TEST(Replication, CorruptShippedCheckpointIsRejectedThenReshipped) {
  TempDir leader_dir("flip_leader");
  TempDir follower_dir("flip_follower");
  std::string error;

  // As in CheckpointShipsAndWarmStartsFollower: truncation leaves the
  // follower no base segment, so it can only start from a shipped checkpoint.
  ServiceConfig config = leader_config(leader_dir.path);
  config.checkpoint_interval_ops = 600;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(509, 2500, 8);
  for (const core::Batch& batch : batches) ASSERT_TRUE(leader->apply(batch, &error));
  ASSERT_GT(leader->last_checkpoint_lsn(), 0U);

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport direct(&*follower);
  BitFlipTransport transport(&direct, follower_dir.path);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 4096;
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  ASSERT_TRUE(transport.flipped_);
  ASSERT_TRUE(transport.corrupt_completion_have_.has_value());
  EXPECT_EQ(*transport.corrupt_completion_have_, 0U)
      << "a corrupt completed checkpoint must be acked have = 0";
  EXPECT_FALSE(transport.published_corrupt_)
      << "a corrupt completed checkpoint must not be published";
  EXPECT_GE(follower->stats().receive_errors, 1U);

  // The clean re-ship publishes, and the follower warm-starts exactly.
  EXPECT_TRUE(std::filesystem::exists(
      service::checkpoint_path(follower_dir.path, transport.corrupt_id_)));
  ASSERT_TRUE(follower->has_engine());
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "after a corrupt checkpoint was re-shipped");
}

TEST(Replication, BothEndsRestartAndResumeFromHave) {
  TempDir leader_dir("resume_leader");
  TempDir follower_dir("resume_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(504, 2000, 8);
  const std::size_t half = batches.size() / 2;
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(leader->apply(batches[i], &error));

  // First shipping session: partial (bounded ticks), then both ends die.
  std::uint64_t persisted_before = 0;
  {
    auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
    ASSERT_TRUE(follower.has_value()) << error;
    DirectTransport transport(&*follower);
    LogShipperOptions ship_options;
    ship_options.chunk_bytes = 512;
    LogShipper shipper(leader_dir.path, &transport, ship_options);
    shipper.attach_durable_cursor(&*leader);
    for (int tick = 0; tick < 20; ++tick) (void)shipper.pump(&error);
    ASSERT_TRUE(follower->poll(&error)) << error;
    persisted_before = follower->stats().bytes_persisted;
    // follower destroyed here: sink closed, partial files stay on disk
  }
  ASSERT_GT(persisted_before, 0U);

  for (std::size_t i = half; i < batches.size(); ++i)
    ASSERT_TRUE(leader->apply(batches[i], &error));

  // Second session: fresh shipper (offset 0) against a warm follower dir.
  // The first ack rewinds nothing and fast-forwards the shipper past
  // everything already persisted — history is not re-applied.
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "resumed across double restart");
  // The restarted shipper's very first segment chunk lands at offset 0
  // against a follower that has more — accepted as a duplicate no-op.
  EXPECT_GT(follower->stats().chunks_accepted, 0U);
}

TEST(Replication, FaultyTransportConvergesAndStaysExact) {
  // The differential fuzz: seeds × fault mixes, every combination must
  // converge to the exact reference state. Faults are deterministic per
  // seed, so any failure here replays.
  struct Mix {
    const char* name;
    TransportFaults faults;
  };
  const Mix mixes[] = {
      {"droppy", {.drop = 0.3, .duplicate = 0.0, .reorder = 0.0, .truncate = 0.0}},
      {"dupey", {.drop = 0.0, .duplicate = 0.4, .reorder = 0.0, .truncate = 0.0}},
      {"reordery", {.drop = 0.0, .duplicate = 0.0, .reorder = 0.4, .truncate = 0.0}},
      {"torn", {.drop = 0.0, .duplicate = 0.0, .reorder = 0.0, .truncate = 0.5}},
      {"storm", {.drop = 0.25, .duplicate = 0.25, .reorder = 0.25, .truncate = 0.25}},
  };
  for (const Mix& mix : mixes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string where = std::string(mix.name) + "/seed" + std::to_string(seed);
      TempDir leader_dir("fuzz_leader");
      TempDir follower_dir("fuzz_follower");
      std::string error;

      ServiceConfig config = leader_config(leader_dir.path);
      config.checkpoint_interval_ops = 700;  // checkpoints ship through faults too
      auto leader = MisService::open(config, &error);
      ASSERT_TRUE(leader.has_value()) << error;
      auto follower =
          FollowerService::open(follower_dir.path, follower_options(), &error);
      ASSERT_TRUE(follower.has_value()) << error;

      DirectTransport direct(&*follower);
      TransportFaults faults = mix.faults;
      faults.seed = seed * 7919;
      FaultyTransport transport(&direct, faults);
      LogShipperOptions ship_options;
      ship_options.chunk_bytes = 1 << 10;
      LogShipper shipper(leader_dir.path, &transport, ship_options);
      shipper.attach_durable_cursor(&*leader);

      const auto batches = make_stream(505 + seed, 2000, 8);
      for (const core::Batch& batch : batches) {
        ASSERT_TRUE(leader->apply(batch, &error)) << where << ": " << error;
        ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
        ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;
      }
      ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
      ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;

      EXPECT_EQ(follower->applied_lsn(), leader->lsn()) << where;
      expect_same(follower->engine(), reference(batches, batches.size(), 7), where);
    }
  }
}

TEST(Replication, FollowerLocalWriteFaultsForceReshipNotCorruption) {
  TempDir leader_dir("sinkfault_leader");
  TempDir follower_dir("sinkfault_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;

  // Every 3rd file the follower opens fails after a 700-byte short write —
  // the shipped prefix survives, the suffix is re-shipped via `have`.
  util::FaultPlan plan;
  plan.write_budget = 700;
  plan.short_write = true;
  FollowerOptions options = follower_options();
  options.file_factory = util::faulty_factory(plan, 2, util::open_appendable);
  auto follower = FollowerService::open(follower_dir.path, options, &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 512;
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(506, 1500, 8);
  for (const core::Batch& batch : batches) {
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
    ASSERT_TRUE(shipper.drain(&error)) << error;
    ASSERT_TRUE(follower->poll(&error)) << error;
  }
  settle(shipper, *follower);

  EXPECT_GT(follower->stats().receive_errors, 0U);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "through local write faults");
}

TEST(Replication, FailoverPromotesAndContinuesOpForOp) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string where = "failover/seed" + std::to_string(seed);
    TempDir leader_dir("failover_leader");
    TempDir follower_dir("failover_follower");
    std::string error;

    auto leader = MisService::open(leader_config(leader_dir.path), &error);
    ASSERT_TRUE(leader.has_value()) << error;
    auto follower =
        FollowerService::open(follower_dir.path, follower_options(), &error);
    ASSERT_TRUE(follower.has_value()) << error;

    DirectTransport direct(&*follower);
    TransportFaults faults;
    faults.drop = 0.2;
    faults.duplicate = 0.2;
    faults.reorder = 0.2;
    faults.truncate = 0.2;
    faults.seed = seed * 104729;
    FaultyTransport transport(&direct, faults);
    LogShipperOptions ship_options;
    ship_options.chunk_bytes = 1 << 10;
    LogShipper shipper(leader_dir.path, &transport, ship_options);
    shipper.attach_durable_cursor(&*leader);

    const auto batches = make_stream(600 + seed, 2400, 8);
    const std::size_t crash_at = batches.size() / 2;
    std::uint64_t crash_lsn = 0;
    for (std::size_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(leader->apply(batches[i], &error)) << where << ": " << error;
      crash_lsn += batches[i].size();
      ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
    }

    // Leader dies mid-ingest. Its disk is the recovery truth now: detach
    // the durable cursor and drain whatever the dead leader's directory
    // holds through the still-faulty link.
    leader.reset();
    shipper.detach_durable_cursor();
    ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
    ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;
    ASSERT_EQ(follower->applied_lsn(), crash_lsn) << where;

    // Promote: the follower becomes a serving leader in its own directory.
    auto promoted = follower->promote(leader_config(follower_dir.path), &error);
    ASSERT_TRUE(promoted.has_value()) << where << ": " << error;
    EXPECT_EQ(promoted->lsn(), crash_lsn) << where;
    expect_same(promoted->engine(), reference(batches, crash_at, 7),
                where + ": at promotion");

    // Continued churn after promotion is op-for-op equal to a leader that
    // never crashed (the RNG-state check above is what guarantees this).
    core::CascadeEngine never_crashed = reference(batches, batches.size(), 7);
    for (std::size_t i = crash_at; i < batches.size(); ++i)
      ASSERT_TRUE(promoted->apply(batches[i], &error)) << where << ": " << error;
    expect_same(promoted->engine(), never_crashed, where + ": after promotion");

    // And the promoted directory — shipped files + re-based WAL — recovers.
    ASSERT_TRUE(promoted->checkpoint(&error)) << where << ": " << error;
    promoted.reset();
    auto reopened = MisService::open(leader_config(follower_dir.path), &error);
    ASSERT_TRUE(reopened.has_value()) << where << ": " << error;
    expect_same(reopened->engine(), never_crashed, where + ": recovery after failover");
  }
}

TEST(Replication, CheckpointAtLsnZeroShipsToFollower) {
  // A leader bootstrapped from a non-empty checkpoint published at lsn 0:
  // its WAL starts at lsn 0 too, so a follower that replays the segments
  // without that checkpoint would cold-start from an empty engine. The
  // shipper must send the lsn-0 checkpoint before the segment chain.
  TempDir leader_dir("lsn0_leader");
  TempDir follower_dir("lsn0_follower");
  std::string error;

  util::Rng rng(505);
  graph::DynamicGraph g = graph::random_avg_degree(120, 6.0, rng);
  {
    std::filesystem::create_directories(leader_dir.path);
    const core::CascadeEngine seed_engine(g, /*priority_seed=*/7);
    service::Checkpointer checkpointer(leader_dir.path);
    ASSERT_TRUE(checkpointer.checkpoint(seed_engine, 0, &error)) << error;
  }
  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  ASSERT_EQ(leader->lsn(), 0U);
  ASSERT_GT(leader->engine().graph().node_count(), 0U);

  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(g, config, 506);
  for (int b = 0; b < 50; ++b) {
    core::Batch batch;
    for (int i = 0; i < 8; ++i) workload::append_op(batch, gen.next());
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
  }

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  ASSERT_TRUE(follower->has_engine());
  EXPECT_GE(follower->stats().checkpoints_published, 1U);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), leader->engine(), "lsn-0 bootstrapped follower");
}

TEST(Replication, SteadyStateTailDoesNotRescanDirectory) {
  // A caught-up follower's cost per poll must not grow with uptime: with
  // hundreds of shipped segments on disk, neither end lists a directory
  // unless the leader rotated or a checkpoint was published. Idle polls
  // (nothing shipped since the last one) scan nothing at all.
  TempDir leader_dir("scan_leader");
  TempDir follower_dir("scan_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.segment_bytes = 512;  // a rotation every few records
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(507, 4800, 4);
  const std::size_t join = batches.size() / 8;
  for (std::size_t i = 0; i < join; ++i) ASSERT_TRUE(leader->apply(batches[i], &error));
  // The follower joins late, so its first plan ships a checkpoint.
  ASSERT_TRUE(leader->checkpoint(&error)) << error;

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  const std::uint64_t first_seq = leader->wal_segment_seq();
  settle(shipper, *follower);

  std::uint64_t idle_polls = 0;
  for (std::size_t i = join; i < batches.size(); ++i) {
    ASSERT_TRUE(leader->apply(batches[i], &error)) << error;
    ASSERT_TRUE(shipper.drain(&error)) << error;
    ASSERT_TRUE(follower->poll(&error)) << error;
    const std::uint64_t follower_scans = follower->stats().dir_scans;
    const std::uint64_t shipper_scans = shipper.stats().dir_scans;
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(shipper.drain(&error)) << error;
      ASSERT_TRUE(follower->poll(&error)) << error;
      ++idle_polls;
    }
    ASSERT_EQ(follower->stats().dir_scans, follower_scans) << "idle poll listed a directory";
    ASSERT_EQ(shipper.stats().dir_scans, shipper_scans) << "idle drain listed a directory";
  }

  const std::uint64_t rotations = leader->wal_segment_seq() - first_seq;
  const std::uint64_t publishes = follower->stats().checkpoints_published;
  ASSERT_GE(service::list_segments(follower_dir.path).size(), 200U);
  EXPECT_EQ(publishes, 1U);
  // One successor search per rotation; the shipper's plan lists both kinds
  // once, the follower lists checkpoints once per publish (plus its first
  // look) and segments once more when it first opens a reader.
  EXPECT_LE(shipper.stats().dir_scans, rotations + 2);
  EXPECT_LE(follower->stats().dir_scans, rotations + publishes + 2);
  EXPECT_GT(idle_polls, 10 * follower->stats().dir_scans);

  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "tail over hundreds of segments");
}

TEST(Replication, ShipperReplansWhenItsHeldSegmentIsTruncatedAway) {
  // The shipper reads through a held descriptor, which keeps an unlinked
  // segment readable. A leader checkpoint that truncates the segment being
  // shipped (and its successors) must still send the shipper back to the
  // newest checkpoint — otherwise it would finish the dead segment, skip
  // to the live one and leave the follower stuck at an lsn no segment
  // chains from.
  TempDir leader_dir("held_leader");
  TempDir follower_dir("held_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.segment_bytes = 1 << 10;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(508, 1600, 8);
  const std::size_t half = batches.size() / 2;
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(leader->apply(batches[i], &error));

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 256;
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);
  for (int tick = 0; tick < 3; ++tick) (void)shipper.pump(&error);  // mid first segment
  ASSERT_TRUE(follower->poll(&error)) << error;
  const std::uint64_t applied_before = follower->applied_lsn();

  ASSERT_TRUE(leader->checkpoint(&error)) << error;  // truncates what is held
  for (std::size_t i = half; i < batches.size(); ++i)
    ASSERT_TRUE(leader->apply(batches[i], &error));
  settle(shipper, *follower);

  EXPECT_GE(shipper.stats().replans, 1U);
  EXPECT_GE(follower->stats().checkpoints_published, 1U);
  EXPECT_GT(follower->stats().rewarms, 0U);
  EXPECT_LT(applied_before, leader->last_checkpoint_lsn());
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "after the held segment was truncated");
}

TEST(Replication, PromoteWithNothingShippedServesFromEmpty) {
  TempDir follower_dir("empty_promote");
  std::string error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  auto promoted = follower->promote(leader_config(follower_dir.path), &error);
  ASSERT_TRUE(promoted.has_value()) << error;
  EXPECT_EQ(promoted->lsn(), 0U);
  const auto batches = make_stream(700, 400, 8);
  for (const core::Batch& batch : batches)
    ASSERT_TRUE(promoted->apply(batch, &error)) << error;
  expect_same(promoted->engine(), reference(batches, batches.size(), 7),
              "cold promoted service");
}

}  // namespace
