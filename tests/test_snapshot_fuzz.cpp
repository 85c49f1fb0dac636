// Snapshot corruption fuzz: byte/bit flips, truncations and section swaps
// over version-1 (graph-only), version-2 (engine-state) and version-3
// (shard-partitioned) snapshot files.
//
// The contract under test is the format's safety ladder (docs/FORMATS.md):
// whatever the bytes, Snapshot::open either rejects the file or yields a
// view whose accessors are memory-safe — so DynamicGraph::load and a warm
// engine construction must succeed without crashing on ANY open-accepted
// file — and Snapshot::verify additionally vouches for semantic integrity
// (checksum + undirectedness + greedy-fixpoint engine state), so an engine
// built from a verify-accepted file must satisfy the full MIS invariant.
// "Never crash" is enforced for real by the ASan+UBSan CI job, which re-runs
// this suite with bounds checking on every mapped access.
//
// Mutations are seeded (util::Rng) so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/lockfree_engine.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/binary_io.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace {

using namespace dmis;
using graph::DynamicGraph;
using graph::NodeId;
using graph::Snapshot;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("dmis_fuzz_" + name)).string();
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

DynamicGraph churned_graph(NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  DynamicGraph g = graph::random_avg_degree(n, 8.0, rng);
  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(std::move(g), config, seed + 1);
  (void)gen.generate(3 * n);
  return gen.graph();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// The post-mutation gauntlet: open the file; if open accepts, every
/// accessor-driven consumer must run to completion (memory safety), and if
/// verify also accepts, the adopted state must satisfy the engine's full
/// invariant (semantic safety). Aborts (DMIS_ASSERT) or sanitizer faults
/// anywhere in here are the failures this suite exists to catch.
///
/// The borrowed path rides the same gauntlet: whatever open() accepts, a
/// zero-copy borrow over it must walk clean and agree with the materialized
/// load — and whatever open() rejects, both paths reject identically
/// (there is one open(); borrow never re-parses the file).
void exercise(const std::string& path, std::uint64_t engine_seed) {
  auto shared = std::make_shared<Snapshot>();
  Snapshot& snap = *shared;
  std::string error;
  if (!snap.open(path, &error)) {
    EXPECT_FALSE(error.empty());
    return;  // rejected — the common, correct outcome, for both modes
  }
  // Open accepted: structural safety is promised. Walk everything.
  const DynamicGraph g = DynamicGraph::load(snap);
  EXPECT_EQ(g.node_count(), snap.node_count());
  std::uint64_t degree_sum = 0;
  for (NodeId v = 0; v < snap.id_bound(); ++v)
    if (snap.alive(v))
      for (const NodeId u : snap.neighbors(v)) degree_sum += u < snap.id_bound();
  EXPECT_EQ(degree_sum, 2 * snap.edge_count());
  // Borrowed twin: every query view over the mapped bytes must be safe and
  // must agree with the materialized graph. Open-accepted mutants may be
  // internally inconsistent (CSR vs edge table can disagree if flips
  // conspire past the structural counters — verify() exists to catch
  // that), so the claims here are strictly differential: borrowed answers
  // == materialized answers, never cross-structure consistency.
  {
    DynamicGraph borrowed = DynamicGraph::borrow(shared);
    EXPECT_EQ(borrowed.node_count(), g.node_count());
    EXPECT_EQ(borrowed.edge_count(), g.edge_count());
    // Same edge enumeration (slot order differs only if a mode walks the
    // wrong bytes) and the same membership answer for every enumerated
    // edge — even when a conspired flip left a key probe-unreachable, both
    // modes must fail to find it identically.
    auto be = borrowed.edges();
    auto me = g.edges();
    std::sort(be.begin(), be.end());
    std::sort(me.begin(), me.end());
    ASSERT_EQ(be, me);
    for (const auto& [eu, ev] : be)
      EXPECT_EQ(borrowed.has_edge(eu, ev), g.has_edge(eu, ev))
          << "(" << eu << "," << ev << ")";
    for (NodeId v = 0; v < snap.id_bound(); ++v) {
      ASSERT_EQ(borrowed.has_node(v), g.has_node(v));
      if (!borrowed.has_node(v)) continue;
      const auto bn = borrowed.neighbors(v);
      const auto mn = g.neighbors(v);
      ASSERT_EQ(bn.size(), mn.size()) << "node " << v;
      for (std::size_t i = 0; i < bn.size(); ++i)
        EXPECT_EQ(bn[i], mn[i]) << "node " << v << " slot " << i;
    }
    // A churn touch (COW a record, toggle the key in the overlay) must
    // net to zero. Endpoints must be live toggleable nodes under BOTH
    // views before mutation is legal at all.
    NodeId u = 0, w = 0;
    util::Rng sample_rng(engine_seed);
    if (borrowed.sample_edge(sample_rng, u, w) && u != w &&
        borrowed.has_node(u) && borrowed.has_node(w) &&
        borrowed.has_edge(u, w) && g.has_edge(u, w)) {
      EXPECT_TRUE(borrowed.remove_edge(u, w));
      EXPECT_FALSE(borrowed.has_edge(u, w));
      EXPECT_TRUE(borrowed.add_edge(u, w));
      EXPECT_TRUE(borrowed.has_edge(u, w));
    }
  }
  const bool verified = snap.verify(&error);
  if (snap.has_engine_state()) {
    // Warm construction must be safe on any open-accepted file (open
    // validated the membership bytes and mis_size agreement); the MIS
    // invariant is only promised when verify() vouched for the fixpoint.
    const core::CascadeEngine warm(snap, engine_seed, graph::SnapshotLoad::kWarm);
    EXPECT_EQ(warm.mis_size(), static_cast<std::size_t>(snap.mis_size()));
    if (verified) warm.verify();
    // The lock-free engine builds its own mirrors (key array, status words)
    // from the same warm start — it must digest whatever the cascade
    // digested and land on the identical membership.
    const core::LockFreeEngine parallel(
        core::EngineCore(snap, engine_seed, graph::SnapshotLoad::kWarm), /*workers=*/2);
    EXPECT_EQ(parallel.membership(), warm.membership());
    if (verified) parallel.verify();
  } else if (verified) {
    const core::CascadeEngine cold(snap, engine_seed, graph::SnapshotLoad::kCold);
    cold.verify();
  }
}

struct Corpus {
  explicit Corpus(const std::string& tag) : file(tag) {}
  TempFile file;
  std::vector<std::uint8_t> pristine;
};

/// Build the three seed files: a v1 graph snapshot, a v2 engine snapshot
/// and a v3 shard-partitioned snapshot of the same engine state, all from a
/// churned graph (dead ids, spilled records, tombstones).
void build_corpus(Corpus& v1, Corpus& v2, Corpus& v3, NodeId n, std::uint64_t seed) {
  const DynamicGraph g = churned_graph(n, seed);
  ASSERT_TRUE(g.save(v1.file.path));
  const core::CascadeEngine engine(g, seed * 3 + 1);
  ASSERT_TRUE(core::save_snapshot(engine, v2.file.path));
  ASSERT_TRUE(core::save_snapshot_sharded(engine, v3.file.path, /*shard_count=*/4));
  v1.pristine = read_bytes(v1.file.path);
  v2.pristine = read_bytes(v2.file.path);
  v3.pristine = read_bytes(v3.file.path);
}

void fuzz_bit_flips(Corpus& c, std::uint64_t seed, int iterations) {
  util::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    std::vector<std::uint8_t> bytes = c.pristine;
    // 1–4 independent single-bit flips: single flips probe every rejection
    // path; multi-flips can conspire past the cheap structural counters and
    // must then be caught by the checksum (or load consistently).
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(rng.next_u64() % bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1U << (rng.next_u64() % 8));
    }
    write_bytes(c.file.path, bytes);
    exercise(c.file.path, seed + static_cast<std::uint64_t>(i));
  }
  write_bytes(c.file.path, c.pristine);
}

void fuzz_truncations(Corpus& c, std::uint64_t seed, int iterations) {
  util::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::size_t keep = static_cast<std::size_t>(rng.next_u64() % c.pristine.size());
    write_bytes(c.file.path, {c.pristine.begin(),
                              c.pristine.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    // Every strict prefix must be rejected (the header pins file_size).
    EXPECT_FALSE(snap.open(c.file.path, &error)) << "kept " << keep << " bytes";
  }
  write_bytes(c.file.path, c.pristine);
}

void fuzz_section_swaps(Corpus& c, std::uint64_t seed) {
  // Swap every pair of section-offset fields in the base header (and, for
  // v2 files, the extension header): the file then claims sections live
  // where other sections' bytes are. open() must reject or the downstream
  // consumers must digest the misdirected bytes without crashing.
  graph::SnapshotHeader header{};
  std::memcpy(&header, c.pristine.data(), sizeof(header));
  std::vector<std::size_t> offset_fields = {
      offsetof(graph::SnapshotHeader, alive_off),
      offsetof(graph::SnapshotHeader, offsets_off),
      offsetof(graph::SnapshotHeader, neighbors_off),
      offsetof(graph::SnapshotHeader, edge_ctrl_off),
      offsetof(graph::SnapshotHeader, edge_keys_off),
  };
  if (header.version >= graph::kSnapshotVersionEngine) {
    offset_fields.push_back(sizeof(graph::SnapshotHeader) +
                            offsetof(graph::SnapshotEngineExt, keys_off));
    offset_fields.push_back(sizeof(graph::SnapshotHeader) +
                            offsetof(graph::SnapshotEngineExt, membership_off));
  }
  std::uint64_t case_id = 0;
  for (std::size_t a = 0; a < offset_fields.size(); ++a) {
    for (std::size_t b = a + 1; b < offset_fields.size(); ++b) {
      std::vector<std::uint8_t> bytes = c.pristine;
      for (int byte = 0; byte < 8; ++byte)
        std::swap(bytes[offset_fields[a] + byte], bytes[offset_fields[b] + byte]);
      write_bytes(c.file.path, bytes);
      exercise(c.file.path, seed + case_id++);
    }
  }
  // Physical swap variant: exchange two equal-length 8-aligned chunks of
  // payload so every header field still validates but section *contents*
  // moved. Structure may pass; the checksum must not.
  util::Rng rng(seed);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> bytes = c.pristine;
    const std::size_t payload = bytes.size() - sizeof(graph::SnapshotHeader);
    if (payload < 64) break;
    const std::size_t len = 8 + static_cast<std::size_t>(rng.next_u64() % 4) * 8;
    const auto pick = [&] {
      return sizeof(graph::SnapshotHeader) +
             (static_cast<std::size_t>(rng.next_u64() % (payload - len)) & ~std::size_t{7});
    };
    const std::size_t x = pick();
    const std::size_t y = pick();
    if (x == y) continue;
    for (std::size_t byte = 0; byte < len; ++byte) std::swap(bytes[x + byte], bytes[y + byte]);
    write_bytes(c.file.path, bytes);
    exercise(c.file.path, seed + 1000 + static_cast<std::uint64_t>(i));
  }
  write_bytes(c.file.path, c.pristine);
}

class SnapshotFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    v1_ = std::make_unique<Corpus>("v1.snap");
    v2_ = std::make_unique<Corpus>("v2.snap");
    v3_ = std::make_unique<Corpus>("v3.snap");
    build_corpus(*v1_, *v2_, *v3_, /*n=*/250, /*seed=*/29);
    // Sanity: the pristine corpus opens, verifies and warm-starts.
    exercise(v1_->file.path, 1);
    exercise(v2_->file.path, 1);
    exercise(v3_->file.path, 1);
  }
  std::unique_ptr<Corpus> v1_;
  std::unique_ptr<Corpus> v2_;
  std::unique_ptr<Corpus> v3_;
};

TEST_F(SnapshotFuzz, BitFlipsNeverCrashV1) { fuzz_bit_flips(*v1_, 0xF00D, 200); }
TEST_F(SnapshotFuzz, BitFlipsNeverCrashV2) { fuzz_bit_flips(*v2_, 0xBEEF, 200); }
TEST_F(SnapshotFuzz, BitFlipsNeverCrashV3) { fuzz_bit_flips(*v3_, 0xC0DE, 200); }

TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV1) { fuzz_truncations(*v1_, 0xACE1, 60); }
TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV2) { fuzz_truncations(*v2_, 0xACE2, 60); }
TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV3) { fuzz_truncations(*v3_, 0xACE3, 60); }

TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV1) { fuzz_section_swaps(*v1_, 0x51AB); }
TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV2) { fuzz_section_swaps(*v2_, 0x51AC); }
TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV3) { fuzz_section_swaps(*v3_, 0x51AD); }

TEST_F(SnapshotFuzz, VersionRelabelingRejected) {
  // The version field lives OUTSIDE the checksummed payload, so relabeling
  // a v2 file as v1 (or vice versa) leaves the checksum valid; open() must
  // still reject because the first section no longer starts at the claimed
  // version's header end. Without that pin, a downgraded v2 file would pass
  // deep verify and silently lose its engine state.
  std::vector<std::uint8_t> bytes = v2_->pristine;
  ASSERT_EQ(bytes[8], 2);  // u32 version LE, low byte
  bytes[8] = 1;
  write_bytes(v2_->file.path, bytes);
  Snapshot snap;
  std::string error;
  EXPECT_FALSE(snap.open(v2_->file.path, &error));
  EXPECT_NE(error.find("header end"), std::string::npos) << error;

  bytes = v1_->pristine;
  ASSERT_EQ(bytes[8], 1);
  bytes[8] = 2;
  write_bytes(v1_->file.path, bytes);
  EXPECT_FALSE(snap.open(v1_->file.path, &error));

  write_bytes(v1_->file.path, v1_->pristine);
  write_bytes(v2_->file.path, v2_->pristine);
}

TEST_F(SnapshotFuzz, V3VersionNegotiation) {
  // Downgrade relabelings of a v3 file: the alive section starts at 296, so
  // claiming v2 (header end 168) or v1 (104) must trip the header-end pin —
  // the checksum stays valid by construction, exactly the attack the pin
  // exists for.
  std::vector<std::uint8_t> bytes = v3_->pristine;
  ASSERT_EQ(bytes[8], 3);
  Snapshot snap;
  std::string error;
  for (const std::uint8_t relabel : {std::uint8_t{2}, std::uint8_t{1}}) {
    bytes[8] = relabel;
    write_bytes(v3_->file.path, bytes);
    EXPECT_FALSE(snap.open(v3_->file.path, &error)) << "relabeled v" << int(relabel);
    EXPECT_NE(error.find("header end"), std::string::npos) << error;
  }
  // Upgrade relabelings: a v2 file claiming v3 must be rejected (its bytes
  // at [168, 296) are alive bytes, not a shard table, and its alive section
  // does not start at 296); a claimed version 4 is from a future writer and
  // an old validator — this one — must reject it cleanly by number.
  bytes = v2_->pristine;
  bytes[8] = 3;
  write_bytes(v2_->file.path, bytes);
  EXPECT_FALSE(snap.open(v2_->file.path, &error));
  EXPECT_FALSE(error.empty());
  bytes = v3_->pristine;
  bytes[8] = 4;
  write_bytes(v3_->file.path, bytes);
  EXPECT_FALSE(snap.open(v3_->file.path, &error));
  EXPECT_NE(error.find("unsupported snapshot version"), std::string::npos) << error;

  // And the backward direction of the negotiation contract: genuine v1/v2
  // files keep opening (and v2 keeps warm-loading) with the v3-aware
  // reader. shard_count() reports the implicit single shard.
  write_bytes(v1_->file.path, v1_->pristine);
  write_bytes(v2_->file.path, v2_->pristine);
  write_bytes(v3_->file.path, v3_->pristine);
  ASSERT_TRUE(snap.open(v2_->file.path, &error)) << error;
  EXPECT_EQ(snap.shard_count(), 1U);
  const core::CascadeEngine warm(snap, snap.priority_seed(), graph::SnapshotLoad::kWarm);
  warm.verify();
  ASSERT_TRUE(snap.open(v3_->file.path, &error)) << error;
  EXPECT_EQ(snap.shard_count(), 4U);
}

TEST_F(SnapshotFuzz, ShardTableBitFlipsRejected) {
  // Every bit of the 128-byte shard table sits inside the checksummed
  // payload. The safety ladder splits the rejection: open()'s structural
  // validation kills any flip that breaks the partition shape (count out of
  // range, non-monotone boundary, dormant slot non-zero), and the flips
  // that slide past it — a boundary nudged but still monotone — MUST fail
  // verify() via the checksum, while every open-accepted mutant still rides
  // the full consumer gauntlet (including the 2-loader parallel warm start,
  // whose shard ranges came from the flipped table) memory-safely.
  // 1024 single-bit mutants, exhaustively.
  const std::size_t shard_off =
      sizeof(graph::SnapshotHeader) + sizeof(graph::SnapshotEngineExt);
  std::size_t open_accepted = 0;
  for (std::size_t byte = 0; byte < sizeof(graph::SnapshotShardExt); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = v3_->pristine;
      bytes[shard_off + byte] ^= static_cast<std::uint8_t>(1U << bit);
      write_bytes(v3_->file.path, bytes);
      Snapshot snap;
      std::string error;
      if (snap.open(v3_->file.path, &error)) {
        ++open_accepted;
        EXPECT_FALSE(snap.verify(&error))
            << "verified a flipped shard-table bit (byte " << byte << " bit "
            << bit << ")";
        exercise(v3_->file.path,
                 static_cast<std::uint64_t>(byte * 8 + static_cast<std::size_t>(bit)));
      } else {
        EXPECT_FALSE(error.empty());
      }
    }
  }
  // Both rungs of the ladder must actually have fired: most flips are
  // structural rejections, but monotone boundary nudges do exist.
  EXPECT_GT(open_accepted, 0U);
  EXPECT_LT(open_accepted, 8U * sizeof(graph::SnapshotShardExt));
  write_bytes(v3_->file.path, v3_->pristine);
}

/// Every prefix length a crash mid-save could leave behind if the save were
/// NOT atomic: each section boundary, one byte either side of it, and the
/// header edges. All must be rejected by open() — and since save_snapshot
/// publishes via write-tmp/fsync/rename, none of these shapes can ever
/// appear at the published path in the first place; this pins the defense
/// in depth for files that arrive by other means (scp, backup restore).
void truncate_at_boundaries(Corpus& c) {
  graph::SnapshotHeader header{};
  std::memcpy(&header, c.pristine.data(), sizeof(header));
  std::vector<std::size_t> cuts = {
      0, 1, 7, 8, sizeof(graph::SnapshotHeader) - 1, sizeof(graph::SnapshotHeader),
      static_cast<std::size_t>(header.alive_off),
      static_cast<std::size_t>(header.offsets_off),
      static_cast<std::size_t>(header.neighbors_off),
      static_cast<std::size_t>(header.edge_ctrl_off),
      static_cast<std::size_t>(header.edge_keys_off),
      c.pristine.size() - 1,
  };
  if (header.version >= graph::kSnapshotVersionEngine) {
    graph::SnapshotEngineExt ext{};
    std::memcpy(&ext, c.pristine.data() + sizeof(header), sizeof(ext));
    cuts.push_back(sizeof(header) + sizeof(ext));
    cuts.push_back(static_cast<std::size_t>(ext.keys_off));
    cuts.push_back(static_cast<std::size_t>(ext.membership_off));
  }
  if (header.version >= graph::kSnapshotVersionSharded) {
    // The v3 header end (shard table included) — the boundary every v3
    // section offset is pinned against.
    cuts.push_back(sizeof(graph::SnapshotHeader) + sizeof(graph::SnapshotEngineExt) +
                   sizeof(graph::SnapshotShardExt));
  }
  // ±1 around every boundary probes off-by-one acceptance.
  const std::vector<std::size_t> base = cuts;
  for (const std::size_t at : base) {
    if (at > 0) cuts.push_back(at - 1);
    cuts.push_back(at + 1);
  }
  for (const std::size_t keep : cuts) {
    if (keep >= c.pristine.size()) continue;
    write_bytes(c.file.path, {c.pristine.begin(),
                              c.pristine.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(c.file.path, &error))
        << "accepted a " << keep << "-byte prefix of a " << c.pristine.size()
        << "-byte snapshot";
    EXPECT_FALSE(error.empty());
  }
  write_bytes(c.file.path, c.pristine);
}

TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV1) {
  truncate_at_boundaries(*v1_);
}
TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV2) {
  truncate_at_boundaries(*v2_);
}
TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV3) {
  truncate_at_boundaries(*v3_);
}

TEST_F(SnapshotFuzz, FailedSaveLeavesExistingSnapshotIntact) {
  // Atomic publish contract: a save that fails mid-flight must leave a
  // pre-existing snapshot at the target path byte-identical — the window
  // where the old file is gone and the new one incomplete must not exist.
  // Force the failure by squatting a directory on the .tmp staging path.
  const DynamicGraph g = churned_graph(80, 41);
  const core::CascadeEngine engine(g, 5);
  TempFile file("atomic.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(engine, file.path, &error)) << error;
  const std::vector<std::uint8_t> before = read_bytes(file.path);

  const std::string tmp = file.path + ".tmp";
  std::filesystem::create_directory(tmp);
  const DynamicGraph g2 = churned_graph(90, 43);
  const core::CascadeEngine engine2(g2, 5);
  EXPECT_FALSE(core::save_snapshot(engine2, file.path, &error));
  EXPECT_NE(error.find(".tmp"), std::string::npos) << error;  // errno context names the staging file
  std::filesystem::remove_all(tmp);

  EXPECT_EQ(read_bytes(file.path), before);
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
}

TEST_F(SnapshotFuzz, SuccessfulSaveReplacesAndLeavesNoResidue) {
  const DynamicGraph g = churned_graph(80, 47);
  const core::CascadeEngine engine(g, 5);
  TempFile file("replace.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(engine, file.path, &error)) << error;

  // A stale partial .tmp from a hypothetical earlier crash must not block
  // or corrupt the next save.
  write_bytes(file.path + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});
  const DynamicGraph g2 = churned_graph(100, 53);
  const core::CascadeEngine engine2(g2, 9);
  ASSERT_TRUE(core::save_snapshot(engine2, file.path, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));

  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
  EXPECT_EQ(snap.priority_seed(), 9U);  // the new file, not the old one
}

/// A live node with at least one neighbor, located by parsing the pristine
/// header sections directly (the corruption tests below need a victim whose
/// record they can poison byte-precisely).
NodeId find_live_node_with_degree(const std::vector<std::uint8_t>& pristine,
                                  const graph::SnapshotHeader& header) {
  const std::uint8_t* alive = pristine.data() + header.alive_off;
  const auto* offs =
      reinterpret_cast<const std::uint64_t*>(pristine.data() + header.offsets_off);
  // Prefer a mid-range id so the corruption sits far from the shallow
  // checks' end-pins.
  for (NodeId v = header.id_bound / 2; v < header.id_bound; ++v)
    if (alive[v] != 0 && offs[v + 1] > offs[v]) return v;
  for (NodeId v = 0; v < header.id_bound / 2; ++v)
    if (alive[v] != 0 && offs[v + 1] > offs[v]) return v;
  return graph::kInvalidNode;
}

using SnapshotFuzzDeathTest = SnapshotFuzz;

TEST_F(SnapshotFuzzDeathTest, ShallowCorruptCsrOffsetAbortsOnFirstTouch) {
  // kShallow pins only the CSR end-points, so a corrupted *interior* offset
  // slides past open() by design — that is the price of the O(header) open.
  // The borrowed graph's lazy per-node guard must then abort with a clear
  // message on the FIRST touch of the poisoned record, instead of handing
  // out an out-of-bounds neighbor span. (kFull keeps rejecting the file,
  // which is why only shallow opens arm the guard bitmap.)
  graph::SnapshotHeader header{};
  std::memcpy(&header, v1_->pristine.data(), sizeof(header));
  const NodeId victim = find_live_node_with_degree(v1_->pristine, header);
  ASSERT_NE(victim, graph::kInvalidNode);

  std::vector<std::uint8_t> bytes = v1_->pristine;
  const std::uint64_t evil = 2 * header.edge_count + (1ULL << 20);
  std::memcpy(bytes.data() + header.offsets_off + std::uint64_t{victim} * 8,
              &evil, sizeof(evil));
  write_bytes(v1_->file.path, bytes);

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  EXPECT_FALSE(snap->open(v1_->file.path, &error));  // kFull still rejects
  ASSERT_TRUE(snap->open(v1_->file.path, &error, /*force_read=*/false,
                         graph::SnapshotValidation::kShallow))
      << error;  // shallow accepts: nothing O(1) can see is wrong
  const DynamicGraph borrowed = DynamicGraph::borrow(snap);
  EXPECT_DEATH((void)borrowed.neighbors(victim), "corrupt CSR offsets");
  write_bytes(v1_->file.path, v1_->pristine);
}

TEST_F(SnapshotFuzzDeathTest, ShallowCorruptNeighborIdAbortsOnFirstTouch) {
  // Same contract, other array: a neighbor id past id_bound would index the
  // alive/offset arrays out of bounds downstream. The first-touch guard
  // must catch it before any accessor dereferences through it.
  graph::SnapshotHeader header{};
  std::memcpy(&header, v1_->pristine.data(), sizeof(header));
  const NodeId victim = find_live_node_with_degree(v1_->pristine, header);
  ASSERT_NE(victim, graph::kInvalidNode);
  const auto* offs = reinterpret_cast<const std::uint64_t*>(
      v1_->pristine.data() + header.offsets_off);
  const std::uint64_t slot = offs[victim];

  std::vector<std::uint8_t> bytes = v1_->pristine;
  const NodeId evil = ~NodeId{0};
  std::memcpy(bytes.data() + header.neighbors_off + slot * sizeof(NodeId),
              &evil, sizeof(evil));
  write_bytes(v1_->file.path, bytes);

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  EXPECT_FALSE(snap->open(v1_->file.path, &error));  // kFull still rejects
  ASSERT_TRUE(snap->open(v1_->file.path, &error, /*force_read=*/false,
                         graph::SnapshotValidation::kShallow))
      << error;
  const DynamicGraph borrowed = DynamicGraph::borrow(snap);
  EXPECT_DEATH((void)borrowed.neighbors(victim), "neighbor id out of range");
  write_bytes(v1_->file.path, v1_->pristine);
}

TEST_F(SnapshotFuzz, NonFixpointMembershipRejectedByVerifyNotOpen) {
  // A structurally pristine v2 file whose membership is NOT the greedy
  // fixpoint (all-zero membership on a non-empty graph, checksum freshly
  // computed by the writer): open() must accept it — nothing is memory-
  // unsafe about it — and verify() must name the fixpoint violation.
  const DynamicGraph g = churned_graph(120, 31);
  const core::CascadeEngine engine(g, 7);
  std::vector<std::uint64_t> keys(g.id_bound(), 0);
  for (NodeId v = 0; v < g.id_bound(); ++v)
    keys[v] = engine.priorities().key_or_zero(v);
  const std::vector<std::uint8_t> all_out(g.id_bound(), 0);
  graph::EngineStateView state;
  state.keys = keys;
  state.membership = all_out;
  state.priority_seed = 7;
  TempFile file("nonfix.snap");
  ASSERT_TRUE(graph::save_snapshot(g, state, file.path));

  Snapshot snap;
  std::string error;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_FALSE(snap.verify(&error));
  EXPECT_NE(error.find("fixpoint"), std::string::npos) << error;
}

// --- Re-checksummed structural mutants ---------------------------------
//
// The checksum covers every payload byte, so the flips above almost never
// get past verify()'s first check. The mutants below recompute
// payload_checksum after the edit: open(kFull) accepts them, and verify()
// must reject them on the adjacency, edge-table and fixpoint checks alone.

/// A snapshot image opened up for byte-precise edits.
struct Image {
  explicit Image(std::vector<std::uint8_t> b) : bytes(std::move(b)) {
    std::memcpy(&header, bytes.data(), sizeof(header));
    if (header.version >= graph::kSnapshotVersionEngine)
      std::memcpy(&ext, bytes.data() + sizeof(header), sizeof(ext));
  }

  template <typename T>
  T* at(std::uint64_t off) {
    return reinterpret_cast<T*>(bytes.data() + off);
  }
  std::uint8_t* alive() { return at<std::uint8_t>(header.alive_off); }
  std::uint64_t* offs() { return at<std::uint64_t>(header.offsets_off); }
  NodeId* nbrs() { return at<NodeId>(header.neighbors_off); }
  std::uint8_t* ctrl() { return at<std::uint8_t>(header.edge_ctrl_off); }
  std::uint64_t* keys() { return at<std::uint64_t>(header.edge_keys_off); }
  std::uint64_t* prio() { return at<std::uint64_t>(ext.keys_off); }
  std::uint8_t* member() { return at<std::uint8_t>(ext.membership_off); }
  bool engine_state() const { return header.version >= graph::kSnapshotVersionEngine; }
  std::uint64_t entries() const { return 2 * header.edge_count; }
  std::size_t groups() const { return static_cast<std::size_t>(header.edge_capacity) / 16; }

  /// The table's probe geometry for `key` (util::FlatSet's layout).
  std::size_t home_group(std::uint64_t key) const {
    return static_cast<std::size_t>(util::FlatSet::hash(key) >> 7) & (groups() - 1);
  }
  static std::uint8_t h2(std::uint64_t key) {
    return static_cast<std::uint8_t>(util::FlatSet::hash(key) & 0x7FU);
  }
  bool group_has_empty(std::size_t g) {
    for (std::size_t s = 0; s < 16; ++s)
      if (ctrl()[g * 16 + s] == kCtrlEmpty) return true;
    return false;
  }
  /// A live node with at least `degree` neighbors (kInvalidNode if none).
  NodeId live_node(std::uint64_t degree) {
    for (NodeId v = header.id_bound / 2; v < header.id_bound; ++v)
      if (alive()[v] != 0 && offs()[v + 1] - offs()[v] >= degree) return v;
    for (NodeId v = 0; v < header.id_bound / 2; ++v)
      if (alive()[v] != 0 && offs()[v + 1] - offs()[v] >= degree) return v;
    return graph::kInvalidNode;
  }

  /// Recompute the payload checksum so the edit survives verify()'s first
  /// check, and write the image to `path`.
  void reseal_to(const std::string& path) {
    header.payload_checksum = util::fnv1a64(bytes.data() + sizeof(header),
                                            bytes.size() - sizeof(header));
    std::memcpy(bytes.data(), &header, sizeof(header));
    write_bytes(path, bytes);
  }

  static constexpr std::uint8_t kCtrlEmpty = 0x80;  // FlatSet's empty slot
  std::vector<std::uint8_t> bytes;
  graph::SnapshotHeader header{};
  graph::SnapshotEngineExt ext{};
};

/// verify() as it was before it probed the mapped table in place: the
/// checksum, then the table adopted into a heap FlatSet (restore), then
/// the CSR walk and the fixpoint pass. Kept as the differential oracle for
/// the in-place kernel on deep-opened files: same verdict, same message.
bool reference_verify(const Snapshot& snap, const std::vector<std::uint8_t>& bytes,
                      std::string* error) {
  const auto fail = [&](const char* message) {
    *error = message;
    return false;
  };
  const std::size_t head = sizeof(graph::SnapshotHeader);
  if (util::fnv1a64(bytes.data() + head, bytes.size() - head) !=
      snap.header().payload_checksum)
    return fail("payload checksum mismatch (corrupt snapshot)");
  util::FlatSet edges;
  if (!edges.restore(snap.edge_ctrl(), snap.edge_keys(),
                     static_cast<std::size_t>(snap.edge_count()),
                     static_cast<std::size_t>(snap.edge_occupied())))
    return fail("edge table fails structural validation");
  std::vector<NodeId> last_lister(snap.id_bound(), graph::kInvalidNode);
  for (NodeId v = 0; v < snap.id_bound(); ++v) {
    for (const NodeId u : snap.neighbors(v)) {
      if (u == v) return fail("self-loop in adjacency");
      if (!snap.alive(u) || !edges.contains(graph::edge_key(u, v)))
        return fail("adjacency entry without a matching edge-table key");
      if (last_lister[u] == v) return fail("duplicate adjacency entry");
      last_lister[u] = v;
    }
  }
  if (snap.has_engine_state()) {
    const auto keys = snap.priority_keys();
    const auto member = snap.membership_bytes();
    for (NodeId v = 0; v < snap.id_bound(); ++v) {
      if (!snap.alive(v)) continue;
      bool blocked = false;
      for (const NodeId u : snap.neighbors(v))
        blocked |= member[u] != 0 &&
                   (keys[u] != keys[v] ? keys[u] < keys[v] : u < v);
      if ((member[v] != 0) == blocked)
        return fail("persisted membership is not the greedy fixpoint of the "
                    "persisted priority keys");
    }
  }
  return true;
}

constexpr const char* kMissingKey = "adjacency entry without a matching edge-table key";

/// Move a table key out of its probe range: empty its slot (in a group
/// that already has an empty slot, so no other key's probe changes) and
/// re-place it, with its own h2, in a group past that empty slot.
bool move_key_past_empty_group(Image& img) {
  const std::size_t groups = img.groups();
  for (std::size_t i = 0; i < groups * 16; ++i) {
    const std::size_t old_group = i / 16;
    if (img.ctrl()[i] >= 0x80 || !img.group_has_empty(old_group)) continue;
    const std::uint64_t key = img.keys()[i];
    const std::size_t home = img.home_group(key);
    const std::size_t reach = (old_group + groups - home) % groups;
    for (std::size_t step = 1; step < groups; ++step) {
      const std::size_t g = (old_group + step) % groups;
      if ((g + groups - home) % groups <= reach || !img.group_has_empty(g)) continue;
      for (std::size_t s = 0; s < 16; ++s) {
        std::uint8_t& c = img.ctrl()[g * 16 + s];
        if (c != Image::kCtrlEmpty) continue;
        c = Image::h2(key);
        img.keys()[g * 16 + s] = key;
        img.ctrl()[i] = Image::kCtrlEmpty;
        img.keys()[i] = 0;
        return true;
      }
    }
  }
  return false;
}

/// Rewrite the h2 control byte of one full slot (still a full-slot value).
bool rewrite_h2(Image& img) {
  for (std::size_t i = 0; i < img.groups() * 16; ++i) {
    if (img.ctrl()[i] >= 0x80) continue;
    img.ctrl()[i] ^= 0x01;
    return true;
  }
  return false;
}

/// Replace one table key by a reachable foreign key (a pair of ids that is
/// not an edge, placed in its own home group with its own h2): the table
/// then holds a key no adjacency entry lists.
bool plant_foreign_key(Image& img) {
  std::set<std::uint64_t> listed;
  for (NodeId v = 0; v < img.header.id_bound; ++v)
    for (std::uint64_t i = img.offs()[v]; i < img.offs()[v + 1]; ++i)
      listed.insert(graph::edge_key(img.nbrs()[i], v));
  for (std::size_t i = 0; i < img.groups() * 16; ++i) {
    if (img.ctrl()[i] >= 0x80) continue;
    for (NodeId a = 0; a < img.header.id_bound; ++a) {
      for (NodeId b = a + 1; b < img.header.id_bound; ++b) {
        const std::uint64_t key = graph::edge_key(a, b);
        if (listed.count(key) != 0 || img.home_group(key) != i / 16) continue;
        img.keys()[i] = key;
        img.ctrl()[i] = Image::h2(key);
        return true;
      }
    }
  }
  return false;
}

/// Node v lists its first neighbor twice (over its second one).
bool duplicate_entry(Image& img) {
  const NodeId v = img.live_node(2);
  if (v == graph::kInvalidNode) return false;
  img.nbrs()[img.offs()[v] + 1] = img.nbrs()[img.offs()[v]];
  return true;
}

/// Node v lists itself.
bool self_loop(Image& img) {
  const NodeId v = img.live_node(1);
  if (v == graph::kInvalidNode) return false;
  img.nbrs()[img.offs()[v]] = v;
  return true;
}

/// Node v lists a dead id.
bool dead_neighbor(Image& img) {
  const NodeId v = img.live_node(1);
  NodeId dead = 0;
  while (dead < img.header.id_bound && img.alive()[dead] != 0) ++dead;
  if (v == graph::kInvalidNode || dead == img.header.id_bound) return false;
  img.nbrs()[img.offs()[v]] = dead;
  return true;
}

TEST_F(SnapshotFuzz, RechecksummedStructuralMutantsRejectedByVerify) {
  struct Mutant {
    const char* name;
    bool (*edit)(Image&);
    const char* message;
  };
  const Mutant mutants[] = {
      {"key moved past an empty group", move_key_past_empty_group, kMissingKey},
      {"rewritten h2 control byte", rewrite_h2, kMissingKey},
      {"surplus foreign key", plant_foreign_key, kMissingKey},
      {"duplicated adjacency entry", duplicate_entry, "duplicate adjacency entry"},
      {"self-loop", self_loop, "self-loop in adjacency"},
      {"dead-node neighbor", dead_neighbor, kMissingKey},
  };
  for (Corpus* c : {v1_.get(), v2_.get(), v3_.get()}) {
    for (const Mutant& m : mutants) {
      SCOPED_TRACE(c->file.path + ": " + m.name);
      Image img(c->pristine);
      ASSERT_TRUE(m.edit(img));
      img.reseal_to(c->file.path);
      Snapshot snap;
      std::string error;
      ASSERT_TRUE(snap.open(c->file.path, &error)) << error;
      EXPECT_FALSE(snap.verify(&error));
      EXPECT_EQ(error, m.message);
      std::string reference_error;
      EXPECT_FALSE(reference_verify(snap, img.bytes, &reference_error));
      EXPECT_EQ(reference_error, m.message);
    }
    write_bytes(c->file.path, c->pristine);
  }
}

/// One random edit from the families that reach verify()'s checks once
/// the checksum is resealed: neighbor ids, entry order, control bytes,
/// table keys and slots, priority keys, membership bytes.
void random_structural_edit(Image& img, util::Rng& rng) {
  const std::uint64_t entries = img.entries();
  const std::uint64_t cap = img.header.edge_capacity;
  const NodeId bound = img.header.id_bound;
  if (entries == 0 || cap == 0 || bound == 0) return;
  const auto below = [&](std::uint64_t n) { return rng.below(n); };
  switch (below(img.engine_state() ? 8 : 6)) {
    case 0:
      img.nbrs()[below(entries)] = static_cast<NodeId>(below(bound));
      break;
    case 1:
      img.nbrs()[below(entries)] ^= NodeId{1} << below(9);
      break;
    case 2: {
      const std::uint64_t i = below(entries);
      const std::uint64_t j = below(2) == 0 ? (i ^ 1) % entries : below(entries);
      std::swap(img.nbrs()[i], img.nbrs()[j]);
      break;
    }
    case 3:
      img.ctrl()[below(cap)] ^= static_cast<std::uint8_t>(1U << below(8));
      break;
    case 4:
      img.keys()[below(cap)] ^= std::uint64_t{1} << below(64);
      break;
    case 5: {
      const std::uint64_t i = below(cap);
      const std::uint64_t j = below(2) == 0 ? (i & ~std::uint64_t{15}) + below(16)
                                            : below(cap);
      std::swap(img.ctrl()[i], img.ctrl()[j]);
      std::swap(img.keys()[i], img.keys()[j]);
      break;
    }
    case 6:
      img.prio()[below(bound)] ^= std::uint64_t{1} << below(64);
      break;
    default:
      std::swap(img.member()[below(bound)], img.member()[below(bound)]);
      break;
  }
}

TEST_F(SnapshotFuzz, VerifyMatchesRestoreBasedReferenceOnRechecksummedMutants) {
  // Differential: over seeded random structural edits with the checksum
  // resealed, every open(kFull)-accepted mutant gets the same verdict and
  // the same message from verify() as from the restore-based reference.
  util::Rng rng(0x5EA1);
  Corpus* corpora[] = {v1_.get(), v2_.get(), v3_.get()};
  int accepted = 0;
  int rejected_by_verify = 0;
  std::set<std::string> messages;
  for (int attempt = 0; attempt < 20'000 && accepted < 600; ++attempt) {
    Corpus& c = *corpora[attempt % 3];
    Image img(c.pristine);
    const int edits = 1 + static_cast<int>(rng.below(2));
    for (int e = 0; e < edits; ++e) random_structural_edit(img, rng);
    img.reseal_to(c.file.path);
    Snapshot snap;
    std::string error;
    if (!snap.open(c.file.path, &error)) continue;
    ++accepted;
    std::string got_error;
    std::string want_error;
    const bool got = snap.verify(&got_error);
    const bool want = reference_verify(snap, img.bytes, &want_error);
    ASSERT_EQ(got, want) << "attempt " << attempt << ": " << got_error << " | "
                         << want_error;
    ASSERT_EQ(got_error, want_error) << "attempt " << attempt;
    if (!got) {
      ++rejected_by_verify;
      messages.insert(got_error);
    }
  }
  for (Corpus* c : corpora) write_bytes(c->file.path, c->pristine);
  EXPECT_GE(accepted, 500);
  // Both verdicts, and the structural checks beyond the checksum, fired.
  EXPECT_GT(rejected_by_verify, 0);
  EXPECT_LT(rejected_by_verify, accepted);
  EXPECT_GE(messages.size(), 3U);
}

TEST_F(SnapshotFuzz, ShallowCorruptCsrOffsetRejectedByVerify) {
  // ShallowCorruptCsrOffsetAbortsOnFirstTouch's mutant with its checksum
  // resealed: kShallow accepts it, and verify() walks every CSR range, so
  // it must run open()'s linear pass first and reject with that pass's
  // message instead of reading past the neighbor section.
  for (Corpus* c : {v1_.get(), v2_.get(), v3_.get()}) {
    SCOPED_TRACE(c->file.path);
    Image img(c->pristine);
    const NodeId victim = img.live_node(1);
    ASSERT_NE(victim, graph::kInvalidNode);
    img.offs()[victim] = img.entries() + (1ULL << 20);
    img.reseal_to(c->file.path);

    Snapshot snap;
    std::string open_error;
    EXPECT_FALSE(snap.open(c->file.path, &open_error));
    std::string error;
    ASSERT_TRUE(snap.open(c->file.path, &error, /*force_read=*/false,
                          graph::SnapshotValidation::kShallow))
        << error;
    EXPECT_FALSE(snap.verify(&error));
    EXPECT_EQ(c->file.path + ": " + error, open_error);

    // The pristine file still verifies from a shallow open.
    write_bytes(c->file.path, c->pristine);
    ASSERT_TRUE(snap.open(c->file.path, &error, /*force_read=*/false,
                          graph::SnapshotValidation::kShallow))
        << error;
    EXPECT_TRUE(snap.verify(&error)) << error;
  }
}

}  // namespace
