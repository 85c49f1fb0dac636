// Snapshot round-trip and rejection tests: save → mmap-load → compare
// (graph equality; the engine × source × load-mode × version matrix of
// warm and cold starts under continued churn) plus truncated /
// corrupt-header / corrupt-payload rejection, and the byte identity of the
// block-buffered writer across its sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/async_mis.hpp"
#include "core/engine_snapshot.hpp"
#include "core/greedy_mis.hpp"
#include "core/lockfree_engine.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/distributed.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using graph::DynamicGraph;
using graph::NodeId;
using graph::Snapshot;

/// Fresh path under the system temp dir, removed by the fixture-less tests
/// themselves (each test uses its own name).
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("dmis_test_" + name)).string();
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

/// A graph with dead ids, spilled adjacency records and edge-table
/// tombstones: the churned shape a production snapshot would have.
DynamicGraph churned_graph(NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  DynamicGraph g = graph::random_avg_degree(n, 8.0, rng);
  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(std::move(g), config, seed + 1);
  (void)gen.generate(4 * n);
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

void expect_round_trip(const DynamicGraph& g, const std::string& tag) {
  TempFile file("snap_" + tag + ".snap");
  std::string error;
  ASSERT_TRUE(g.save(file.path, &error)) << error;
  for (const bool force_read : {false, true}) {
    Snapshot snap;
    ASSERT_TRUE(snap.open(file.path, &error, force_read)) << error;
    EXPECT_EQ(snap.node_count(), g.node_count());
    EXPECT_EQ(snap.edge_count(), g.edge_count());
    EXPECT_TRUE(snap.verify(&error)) << error;
    const DynamicGraph loaded = DynamicGraph::load(snap);
    EXPECT_TRUE(loaded == g) << tag << (force_read ? " (read fallback)" : " (mmap)");
    // operator== compares liveness + edge sets; additionally pin the
    // adjacency views (degree + neighbor multiset per node).
    g.for_each_node([&](NodeId v) {
      ASSERT_TRUE(loaded.has_node(v));
      auto a = std::vector<NodeId>(g.neighbors(v).begin(), g.neighbors(v).end());
      auto b = std::vector<NodeId>(loaded.neighbors(v).begin(), loaded.neighbors(v).end());
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "node " << v;
    });
  }
}

TEST(Snapshot, RoundTripShapes) {
  expect_round_trip(DynamicGraph(), "empty");
  expect_round_trip(DynamicGraph(1), "single");
  expect_round_trip(graph::path(10), "path");
  expect_round_trip(graph::star(40), "star");  // center spills inline capacity
  expect_round_trip(graph::complete(20), "complete");
}

TEST(Snapshot, RoundTripChurnedRandomGraphs) {
  for (const std::uint64_t seed : {3u, 17u, 99u})
    expect_round_trip(churned_graph(600, seed), "churn" + std::to_string(seed));
}

TEST(Snapshot, RejectsTruncatedFiles) {
  const DynamicGraph g = churned_graph(120, 7);
  TempFile file("snap_trunc.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> bytes = read_bytes(file.path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{40}, sizeof(graph::SnapshotHeader),
        bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(file.path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(file.path, &error)) << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
  // Trailing garbage is rejected too (file_size mismatch).
  std::vector<std::uint8_t> extended = bytes;
  extended.push_back(0);
  write_bytes(file.path, extended);
  Snapshot snap;
  EXPECT_FALSE(snap.open(file.path));
}

TEST(Snapshot, RejectsCorruptHeaders) {
  const DynamicGraph g = churned_graph(120, 8);
  TempFile file("snap_hdr.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> pristine = read_bytes(file.path);

  const auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[offset] = value;
    write_bytes(file.path, bytes);
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(file.path, &error)) << "offset " << offset;
  };
  corrupt(0, 'X');    // magic
  corrupt(8, 99);     // version
  corrupt(13, 0x99);  // endian tag (byte 12 is 0x04 in a valid LE header)
  corrupt(16, 0xFF);  // file_size
  // Section offset pointing past the end (alive_off low byte; the section
  // length check catches it whether the result is huge or misaligned).
  corrupt(40, 0xFF);
}

TEST(Snapshot, RejectsCorruptStructure) {
  const DynamicGraph g = churned_graph(120, 9);
  TempFile file("snap_struct.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> pristine = read_bytes(file.path);
  graph::SnapshotHeader header{};
  std::memcpy(&header, pristine.data(), sizeof(header));

  // Non-monotone CSR offsets: bump a middle offset far above its successor.
  {
    std::vector<std::uint8_t> bytes = pristine;
    const std::size_t mid =
        static_cast<std::size_t>(header.offsets_off) + 8 * (header.id_bound / 2);
    bytes[mid + 3] = 0xFF;
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Alive byte that is neither 0 nor 1.
  {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[static_cast<std::size_t>(header.alive_off)] = 7;
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Edge-table control byte flipped to a different classification (full →
  // empty): the slot counts disagree with the header, so open() itself
  // rejects — DynamicGraph::load can never abort on an accepted snapshot.
  {
    std::vector<std::uint8_t> bytes = pristine;
    std::size_t full_slot = static_cast<std::size_t>(header.edge_ctrl_off);
    while ((bytes[full_slot] & 0x80U) != 0) ++full_slot;  // find a full slot
    bytes[full_slot] = 0x80;                              // kEmpty
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Same-classification corruption (full byte, wrong h2 tag): structurally
  // undetectable, so open() succeeds — but verify()'s checksum catches it.
  {
    std::vector<std::uint8_t> bytes = pristine;
    std::size_t full_slot = static_cast<std::size_t>(header.edge_ctrl_off);
    while ((bytes[full_slot] & 0x80U) != 0) ++full_slot;
    bytes[full_slot] ^= 0x01;  // stays in the full range [0, 0x80)
    write_bytes(file.path, bytes);
    Snapshot snap;
    ASSERT_TRUE(snap.open(file.path));
    std::string error;
    EXPECT_FALSE(snap.verify(&error));
  }
}

// ---------------------------------------------------------------------------
// Version-2 (engine-state) snapshots: warm start vs cold recompute.
// ---------------------------------------------------------------------------

/// An engine whose state has real history: built from a churned graph, then
/// driven through `extra_ops` more churn ops so keys were drawn for ids that
/// later died, membership flipped repeatedly, etc. Returns the generator so
/// callers can continue the same valid op stream.
core::CascadeEngine churned_engine(NodeId n, std::uint64_t seed,
                                   std::uint64_t priority_seed, int extra_ops,
                                   std::unique_ptr<workload::ChurnGenerator>& gen_out) {
  const DynamicGraph g = churned_graph(n, seed);
  core::CascadeEngine engine(g, priority_seed);
  workload::ChurnConfig config;
  config.p_abrupt = 0.5;
  config.p_unmute = 0.2;
  gen_out = std::make_unique<workload::ChurnGenerator>(g, config, seed + 3);
  for (int i = 0; i < extra_ops; ++i) workload::apply(engine, gen_out->next());
  return engine;
}

// ---------------------------------------------------------------------------
// The engine × source × load-mode × file-version matrix. Every engine starts
// from the same (graph, priority keys, membership) triple whatever the
// source; each cell must land on greedy_mis of its own keys, agree bit for
// bit with a CascadeEngine reference (a kColdKeys twin when the cell adopts
// the persisted keys, a fresh-draw twin otherwise) and keep agreeing, op by
// op, under continued churn. Key-adopting requests on a graph-only (v1) file
// must die naming it.
// ---------------------------------------------------------------------------

enum class Eng : std::uint8_t { kCascade, kLockFree, kDist, kAsync };
enum class Src : std::uint8_t { kGraph, kLoad, kSplit, kBorrow };

struct Cell {
  Eng engine;
  Src source;
  graph::SnapshotLoad mode;
  int version;
};

/// One source engine with real history, saved as v1 / v2 / v3, plus the
/// continuation ops every cell replays. Built once per process.
struct MatrixCorpus {
  static constexpr std::uint64_t kSourceSeed = 7;  // persisted priority seed
  static constexpr std::uint64_t kCellSeed = 11;   // the seed each cell passes

  MatrixCorpus() : v1("matrix_v1.snap"), v2("matrix_v2.snap"), v3("matrix_v3.snap") {
    std::unique_ptr<workload::ChurnGenerator> gen;
    const core::CascadeEngine source =
        churned_engine(160, 61, kSourceSeed, /*extra_ops=*/400, gen);
    EXPECT_TRUE(source.graph().save(v1.path));
    EXPECT_TRUE(core::save_snapshot(source, v2.path));
    EXPECT_TRUE(core::save_snapshot_sharded(source, v3.path, 4));
    for (int i = 0; i < 120; ++i) ops.push_back(gen->next());
  }
  [[nodiscard]] const std::string& path(int version) const {
    return version == 1 ? v1.path : version == 2 ? v2.path : v3.path;
  }

  TempFile v1, v2, v3;
  std::vector<workload::GraphOp> ops;
};

const MatrixCorpus& matrix_corpus() {
  static const MatrixCorpus corpus;
  return corpus;
}

std::shared_ptr<const Snapshot> open_shared(const std::string& path) {
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  EXPECT_TRUE(snap->open(path, &error)) << error;
  return snap;
}

/// The start state the cell's source yields; the engine under test adopts it.
core::EngineCore build_core(const Cell& cell) {
  const std::uint64_t seed = MatrixCorpus::kCellSeed;
  const auto snap = open_shared(matrix_corpus().path(cell.version));
  switch (cell.source) {
    case Src::kGraph:
      return core::EngineCore(DynamicGraph::load(*snap), seed);
    case Src::kLoad:
      return core::EngineCore(*snap, seed, cell.mode);
    case Src::kSplit:
      return core::EngineCore(DynamicGraph::load(*snap), *snap, seed, cell.mode);
    case Src::kBorrow:
      break;
  }
  return core::EngineCore(snap, seed, cell.mode);
}

/// Replay the corpus ops on `engine` beside `twin`, comparing adjustments op
/// by op.
template <typename Engine, typename Apply>
void track_twin(Engine& engine, core::CascadeEngine& twin, Apply apply_op) {
  for (std::size_t i = 0; i < matrix_corpus().ops.size(); ++i) {
    const workload::GraphOp& op = matrix_corpus().ops[i];
    workload::apply(twin, op);
    ASSERT_EQ(apply_op(engine, op, i), twin.last_report().adjustments) << "op " << i;
  }
}

template <typename Engine>
void expect_fixpoint_of_own_keys(const Engine& engine, const core::CascadeEngine& twin,
                                 const char* when) {
  core::PriorityMap keys = engine.priorities();
  const core::Membership oracle = core::greedy_mis(engine.graph(), keys);
  ASSERT_TRUE(engine.graph() == twin.graph()) << when;
  engine.graph().for_each_node([&](NodeId v) {
    ASSERT_EQ(engine.in_mis(v), oracle[v] != 0) << when << ": node " << v;
    ASSERT_EQ(engine.in_mis(v), twin.in_mis(v)) << when << ": node " << v;
  });
  EXPECT_TRUE(engine.priorities().rng_state() == twin.priorities().rng_state()) << when;
}

class SnapshotMatrix : public ::testing::TestWithParam<Cell> {
 protected:
  template <typename Engine, typename Make, typename Apply>
  void run(Make make, Apply apply_op) {
    const Cell cell = GetParam();
    const MatrixCorpus& corpus = matrix_corpus();
    const bool adopts_keys =
        cell.source != Src::kGraph &&
        (cell.mode == graph::SnapshotLoad::kWarm ||
         cell.mode == graph::SnapshotLoad::kColdKeys ||
         (cell.mode == graph::SnapshotLoad::kAuto && cell.version >= 2));
    if (adopts_keys && cell.version == 1) {
      EXPECT_DEATH((void)build_core(cell), "graph-only");
      return;
    }
    const std::unique_ptr<Engine> engine = make(build_core(cell));
    Snapshot snap;
    ASSERT_TRUE(snap.open(corpus.path(cell.version)));
    core::CascadeEngine twin =
        adopts_keys ? core::CascadeEngine(snap, MatrixCorpus::kCellSeed,
                                          graph::SnapshotLoad::kColdKeys)
                    : core::CascadeEngine(DynamicGraph::load(snap), MatrixCorpus::kCellSeed);
    if (adopts_keys) {
      // A continuation, not a reseed: the saved seed and generator state.
      EXPECT_EQ(engine->priorities().seed(), MatrixCorpus::kSourceSeed);
      const util::Rng::State rng = engine->priorities().rng_state();
      EXPECT_TRUE(std::equal(rng.begin(), rng.end(), snap.engine_ext().rng_state));
    }
    EXPECT_EQ(engine->graph().borrowed(), cell.source == Src::kBorrow);
    expect_fixpoint_of_own_keys(*engine, twin, "at start");
    track_twin(*engine, twin, apply_op);
    expect_fixpoint_of_own_keys(*engine, twin, "after churn");
    engine->verify();
  }
};

/// Sequential engines report through last_report(); the cascade also takes
/// every other op as a one-op apply_batch, so the batch path is in the matrix.
template <typename Engine>
std::uint64_t apply_sequential(Engine& engine, const workload::GraphOp& op, std::size_t) {
  workload::apply(engine, op);
  return engine.last_report().adjustments;
}

std::uint64_t apply_cascade(core::CascadeEngine& engine, const workload::GraphOp& op,
                            std::size_t i) {
  if (i % 2 == 0) return apply_sequential(engine, op, i);
  core::Batch batch;
  workload::append_op(batch, op);
  return core::apply_batch(engine, batch).report.adjustments;
}

template <typename Engine>
std::uint64_t apply_distributed(Engine& engine, const workload::GraphOp& op, std::size_t) {
  return workload::apply_with_cost(engine, op).cost.adjustments;
}

/// The engine-specific half of construction: everything else is the core.
template <typename Engine, typename... Tail>
auto adopt(Tail... tail) {
  return [=](core::EngineCore core) {
    return std::make_unique<Engine>(std::move(core), tail...);
  };
}

TEST_P(SnapshotMatrix, StartsOnTheFixpointAndTracksItsTwin) {
  switch (GetParam().engine) {
    case Eng::kCascade:
      run<core::CascadeEngine>(adopt<core::CascadeEngine>(), apply_cascade);
      break;
    case Eng::kLockFree:
      run<core::LockFreeEngine>(adopt<core::LockFreeEngine>(),
                                apply_sequential<core::LockFreeEngine>);
      break;
    case Eng::kDist:
      run<core::DistMis>(adopt<core::DistMis>(), apply_distributed<core::DistMis>);
      break;
    case Eng::kAsync:
      run<core::AsyncMis>(adopt<core::AsyncMis>(std::uint64_t{13}),
                          apply_distributed<core::AsyncMis>);
      break;
  }
}

std::vector<Cell> matrix_cells() {
  std::vector<Cell> cells;
  for (const Eng engine : {Eng::kCascade, Eng::kLockFree, Eng::kDist, Eng::kAsync})
    for (const int version : {1, 2, 3}) {
      // A graph carries no persisted state, so the mode axis collapses there.
      cells.push_back({engine, Src::kGraph, graph::SnapshotLoad::kCold, version});
      for (const Src source : {Src::kLoad, Src::kSplit, Src::kBorrow})
        for (const auto mode : {graph::SnapshotLoad::kAuto, graph::SnapshotLoad::kCold,
                                graph::SnapshotLoad::kColdKeys,
                                graph::SnapshotLoad::kWarm})
          cells.push_back({engine, source, mode, version});
    }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  static const char* const kEngines[] = {"Cascade", "LockFree", "Dist", "Async"};
  static const char* const kSources[] = {"Graph", "Load", "Split", "Borrow"};
  static const char* const kModes[] = {"Auto", "Cold", "ColdKeys", "Warm"};
  const Cell& c = info.param;
  return std::string(kEngines[static_cast<int>(c.engine)]) +
         kSources[static_cast<int>(c.source)] + kModes[static_cast<int>(c.mode)] + "V" +
         std::to_string(c.version);
}

INSTANTIATE_TEST_SUITE_P(EngineSourceModeFile, SnapshotMatrix,
                         ::testing::ValuesIn(matrix_cells()), cell_name);


TEST(SnapshotV2, CrossEngineSaveAndWarmStartInterchange) {
  // Engine state saved from any engine flavor warm-starts any other: the
  // persisted keys + membership are the complete, engine-agnostic state.
  const DynamicGraph g = churned_graph(220, 71);
  core::DistMis dist(g, 17);
  core::AsyncMis async(core::EngineCore(g, 17), /*scheduler_seed=*/3);
  const core::CascadeEngine oracle(g, 17);

  for (const auto& [tag, save] :
       {std::pair<const char*, std::function<bool(const std::string&, std::string*)>>{
            "dist", [&](const std::string& p, std::string* e) {
              return core::save_snapshot(dist, p, e);
            }},
        {"async", [&](const std::string& p, std::string* e) {
           return core::save_snapshot(async, p, e);
         }}}) {
    TempFile file(std::string("v2_cross_") + tag + ".snap");
    std::string error;
    ASSERT_TRUE(save(file.path, &error)) << tag << ": " << error;
    Snapshot snap;
    ASSERT_TRUE(snap.open(file.path, &error)) << tag << ": " << error;
    ASSERT_TRUE(snap.verify(&error)) << tag << ": " << error;
    const core::CascadeEngine warm(snap, 17, graph::SnapshotLoad::kWarm);
    EXPECT_EQ(warm.mis_size(), oracle.mis_size()) << tag;
    EXPECT_TRUE(warm.mis_set() == oracle.mis_set()) << tag;
    warm.verify();
  }
}

TEST(Snapshot, ChecksumCatchesPayloadBitFlips) {
  const DynamicGraph g = churned_graph(200, 10);
  TempFile file("snap_sum.snap");
  ASSERT_TRUE(g.save(file.path));
  std::vector<std::uint8_t> bytes = read_bytes(file.path);
  graph::SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));

  // Swap two neighbor entries of one node: every structural check still
  // passes (same degree, same neighbor set) but the bytes moved — only the
  // checksum can notice.
  NodeId victim = graph::kInvalidNode;
  g.for_each_node([&](NodeId v) {
    if (victim == graph::kInvalidNode && g.degree(v) >= 2) victim = v;
  });
  ASSERT_NE(victim, graph::kInvalidNode);
  Snapshot pristine;
  ASSERT_TRUE(pristine.open(file.path));
  const std::size_t base = static_cast<std::size_t>(
      header.neighbors_off + sizeof(NodeId) * pristine.csr_offsets()[victim]);
  for (int b = 0; b < 4; ++b)
    std::swap(bytes[base + b], bytes[base + 4 + b]);
  pristine = Snapshot();  // release the mapping before rewriting the file

  write_bytes(file.path, bytes);
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));  // structure is still coherent
  std::string error;
  EXPECT_FALSE(snap.verify(&error));
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

graph::EngineStateView engine_state(const core::CascadeEngine& engine) {
  graph::EngineStateView state;
  const auto keys = engine.priorities().raw_keys();
  const NodeId bound = engine.graph().id_bound();
  state.keys = keys.size() > bound ? keys.first(bound) : keys;
  state.membership = engine.membership();
  state.priority_seed = engine.priorities().seed();
  const util::Rng::State rng = engine.priorities().rng_state();
  for (int w = 0; w < 4; ++w) state.rng_state[w] = rng[static_cast<std::size_t>(w)];
  return state;
}

TEST(SnapshotWriter, PayloadWriterMatchesAnUnbufferedStream) {
  // Writes of every size class — single bytes, sub-block runs, runs that
  // straddle a block boundary, runs larger than a whole block — must come
  // out as the plain concatenation, with FNV-1a over exactly those bytes.
  util::Rng rng(404);
  std::vector<std::uint8_t> source(16 * util::PayloadWriter::kBlockBytes);
  for (auto& b : source) b = static_cast<std::uint8_t>(rng.next_u64());
  TempFile file("payload_writer.bin");
  std::FILE* f = std::fopen(file.path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  util::PayloadWriter w(f, 16);
  util::PayloadWriter hasher(16);
  std::vector<std::uint8_t> expected;
  std::size_t at = 0;
  const std::size_t sizes[] = {1, 7, 8, 3, 4096, util::PayloadWriter::kBlockBytes - 5000,
                               9000, util::PayloadWriter::kBlockBytes + 3, 1, 0,
                               util::PayloadWriter::kBlockBytes};
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t size : sizes) {
      const std::size_t n = std::min(size, source.size() - at);
      ASSERT_TRUE(w.write(source.data() + at, n));
      ASSERT_TRUE(hasher.write(source.data() + at, n));
      expected.insert(expected.end(), source.begin() + static_cast<std::ptrdiff_t>(at),
                      source.begin() + static_cast<std::ptrdiff_t>(at + n));
      at += n;
      ASSERT_TRUE(w.align8());
      ASSERT_TRUE(hasher.align8());
      expected.resize(static_cast<std::size_t>(util::pad8(16 + expected.size()) - 16), 0);
      ASSERT_EQ(w.position(), 16 + expected.size());
    }
  }
  ASSERT_LT(at, source.size()) << "every write above must have carried its full size";
  ASSERT_TRUE(w.finish());
  ASSERT_TRUE(hasher.finish());
  std::fclose(f);
  EXPECT_EQ(read_bytes(file.path), expected);
  EXPECT_EQ(w.checksum(), util::fnv1a64(expected.data(), expected.size()));
  EXPECT_EQ(hasher.checksum(), w.checksum());
}

TEST(SnapshotWriter, StdioAndFactoryPathsWriteIdenticalBytes) {
  // The one-pass stdio writer (seek back, patch the checksum) and the
  // two-pass WritableFile writer (hash first, header first) must produce
  // the same file for every version, from a materialized and from a
  // borrowed graph (whose edge table is merged from base + overlay). The
  // graph is large enough that every section crosses the writer's block.
  const DynamicGraph g = churned_graph(60'000, 515);
  core::CascadeEngine materialized(g, 29);
  TempFile base_file("writer_base.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(materialized, base_file.path, &error)) << error;
  auto base = std::make_shared<Snapshot>();
  ASSERT_TRUE(base->open(base_file.path, &error)) << error;
  core::CascadeEngine borrowed(std::shared_ptr<const Snapshot>(base), 29,
                               graph::SnapshotLoad::kWarm);
  ASSERT_TRUE(borrowed.graph().borrowed());
  util::Rng rng(516);
  workload::ChurnConfig churn;
  churn.p_abrupt = 0.3;
  workload::ChurnGenerator gen(g, churn, 517);
  for (int i = 0; i < 20'000; ++i) {
    const workload::GraphOp op = gen.next();
    workload::apply(materialized, op);
    workload::apply(borrowed, op);
  }
  ASSERT_GT(borrowed.graph().overlay_nodes(), 0U);

  const util::FileFactory factory = util::open_writable;
  for (const auto* engine : {&materialized, &borrowed}) {
    const char* kind = engine == &materialized ? "materialized" : "borrowed";
    const DynamicGraph& graph = engine->graph();
    const graph::EngineStateView state = engine_state(*engine);
    for (const std::uint32_t version : {1U, 2U, 3U}) {
      const std::string tag = std::string(kind) + "/v" + std::to_string(version);
      TempFile via_stdio("writer_stdio.snap");
      TempFile via_factory("writer_factory.snap");
      bool saved_stdio = false;
      bool saved_factory = false;
      if (version == 1) {
        saved_stdio = graph::save_snapshot(graph, via_stdio.path, &error);
        saved_factory = graph::save_snapshot(graph, via_factory.path, factory, &error);
      } else if (version == 2) {
        saved_stdio = graph::save_snapshot(graph, state, via_stdio.path, &error);
        saved_factory = graph::save_snapshot(graph, state, via_factory.path, factory, &error);
      } else {
        saved_stdio = graph::save_snapshot_sharded(graph, state, via_stdio.path, 4, &error);
        saved_factory =
            graph::save_snapshot_sharded(graph, state, via_factory.path, 4, factory, &error);
      }
      ASSERT_TRUE(saved_stdio && saved_factory) << tag << ": " << error;
      const std::vector<std::uint8_t> a = read_bytes(via_stdio.path);
      ASSERT_GT(a.size(), 2 * util::PayloadWriter::kBlockBytes) << tag;
      EXPECT_TRUE(a == read_bytes(via_factory.path)) << tag << ": paths diverged";
      Snapshot snap;
      ASSERT_TRUE(snap.open(via_stdio.path, &error)) << tag << ": " << error;
      EXPECT_EQ(snap.header().version, version) << tag;
      EXPECT_TRUE(snap.verify(&error)) << tag << ": " << error;
      EXPECT_TRUE(DynamicGraph::load(snap) == graph) << tag;
    }
  }
}

}  // namespace
