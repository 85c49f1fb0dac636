#include "graph/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/fs.hpp"

namespace dmis::graph {

using util::pad8;
using util::set_error;

bool Snapshot::open(const std::string& path, std::string* error, bool force_read,
                    SnapshotValidation validation) {
  header_ = SnapshotHeader{};
  ext_ = SnapshotEngineExt{};
  shard_ = SnapshotShardExt{};
  deep_validated_ = false;
  if (!file_.open(path, error, force_read)) return false;
  const auto fail = [&](const std::string& message) {
    set_error(error, path + ": " + message);
    file_.reset();
    return false;
  };

  if (file_.size() < sizeof(SnapshotHeader)) return fail("truncated header");
  std::memcpy(&header_, file_.data(), sizeof(SnapshotHeader));
  if (std::memcmp(header_.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return fail("bad magic (not a dmis snapshot)");
  if (header_.endian_tag != kSnapshotEndianTag)
    return fail("endianness mismatch (snapshot written on a different-endian host)");
  if (header_.version != kSnapshotVersion &&
      header_.version != kSnapshotVersionEngine &&
      header_.version != kSnapshotVersionSharded)
    return fail("unsupported snapshot version " + std::to_string(header_.version));
  if (header_.file_size != file_.size())
    return fail("file size mismatch (truncated or trailing garbage)");
  // v2 appends the engine-state extension header right after the frozen
  // base header; v3 appends the shard table after that. Every section then
  // starts past all the headers the claimed version carries.
  const bool sharded = header_.version >= kSnapshotVersionSharded;
  const std::uint64_t header_end =
      sizeof(SnapshotHeader) +
      (has_engine_state() ? sizeof(SnapshotEngineExt) : std::uint64_t{0}) +
      (sharded ? sizeof(SnapshotShardExt) : std::uint64_t{0});
  if (has_engine_state()) {
    if (file_.size() < header_end) return fail("truncated extension header");
    std::memcpy(&ext_, file_.data() + sizeof(SnapshotHeader), sizeof(SnapshotEngineExt));
  }
  if (sharded) {
    std::memcpy(&shard_,
                file_.data() + sizeof(SnapshotHeader) + sizeof(SnapshotEngineExt),
                sizeof(SnapshotShardExt));
    // The shard table must name a valid partition of [0, id_bound): a
    // plausible count, monotone interior boundaries within range, and dormant
    // slots zero. Anything else is structural corruption — the parallel
    // loaders index the sections by these values.
    if (shard_.shard_count < 1 || shard_.shard_count > kSnapshotMaxShards)
      return fail("shard count out of range");
    std::uint64_t last = 0;
    for (std::uint64_t s = 0; s + 1 < shard_.shard_count; ++s) {
      if (shard_.boundary[s] < last || shard_.boundary[s] > header_.id_bound)
        return fail("shard boundaries not a monotone partition of the id space");
      last = shard_.boundary[s];
    }
    for (std::uint64_t s = shard_.shard_count > 0 ? shard_.shard_count - 1 : 0;
         s < 15; ++s)
      if (shard_.boundary[s] != 0) return fail("unused shard boundary slot not zero");
  }

  // Section bounds: every [off, off + len) must be 8-aligned and inside the
  // payload. Checked before any accessor can touch the bytes.
  const auto section_ok = [&](std::uint64_t off, std::uint64_t len) {
    return (off & 7U) == 0 && off >= header_end && off <= header_.file_size &&
           len <= header_.file_size - off;
  };
  const std::uint64_t bound = header_.id_bound;
  // A real edge costs ≥ 8 neighbor bytes, so this bound also keeps the
  // section-length arithmetic below far from u64 overflow.
  if (header_.edge_count > header_.file_size) return fail("edge_count implausibly large");
  const std::uint64_t half_edges = 2 * header_.edge_count;
  if (header_.node_count > bound) return fail("node_count exceeds id_bound");
  // The first section starts exactly where the claimed version's headers
  // end (every writer lays files out that way). This pins the version field
  // — which lives outside the checksummed payload — to the layout: a v2
  // file whose version byte is corrupted down to 1 still has alive_off ==
  // 168 and is rejected here, instead of passing every check and silently
  // dropping its engine state.
  if (header_.alive_off != header_end)
    return fail("alive section does not start at the header end for this version");
  if (!section_ok(header_.alive_off, bound)) return fail("alive section out of bounds");
  if (!section_ok(header_.offsets_off, (bound + 1) * 8))
    return fail("offsets section out of bounds");
  if (!section_ok(header_.neighbors_off, half_edges * sizeof(NodeId)))
    return fail("neighbors section out of bounds");
  if (!section_ok(header_.edge_ctrl_off, header_.edge_capacity))
    return fail("edge ctrl section out of bounds");
  if (!section_ok(header_.edge_keys_off, header_.edge_capacity * 8))
    return fail("edge keys section out of bounds");
  if (header_.edge_count > header_.edge_occupied ||
      header_.edge_occupied > header_.edge_capacity)
    return fail("edge table counters inconsistent");
  if (has_engine_state()) {
    if (!section_ok(ext_.keys_off, bound * 8))
      return fail("priority key section out of bounds");
    if (!section_ok(ext_.membership_off, bound))
      return fail("membership section out of bounds");
  }
  // O(1) edge-table capacity shape (full membership classification is the
  // linear scan below): probe_raw and restore() both require a power-of-two
  // capacity ≥ one group, and the occupancy ceiling is what bounds probe
  // chains on a well-formed table.
  if (header_.edge_capacity != 0 &&
      (header_.edge_capacity < 16 ||
       (header_.edge_capacity & (header_.edge_capacity - 1)) != 0))
    return fail("edge table capacity is not a power of two >= 16");
  if (header_.edge_occupied > header_.edge_capacity - header_.edge_capacity / 8)
    return fail("edge table occupancy exceeds the 7/8 ceiling");
  // Two O(1) reads pin the CSR to the neighbor section even in shallow
  // mode; the per-node monotonicity walk is linear_pass_error().
  const auto offs = csr_offsets();
  if (offs[0] != 0 || offs[bound] != half_edges)
    return fail("CSR offsets do not cover the neighbor section");

  if (validation == SnapshotValidation::kShallow) return true;
  if (const char* message = linear_pass_error()) return fail(message);
  deep_validated_ = true;
  return true;
}

const char* Snapshot::linear_pass_error() const noexcept {
  // One linear pass: CSR offsets monotone and bounded, neighbor ids in
  // range, alive bytes boolean and consistent with node_count, dead nodes
  // degree-free, membership bytes (v2) boolean, zero on dead ids and
  // consistent with the extension header's mis_size. After this every
  // accessor is memory-safe and load() cannot be driven out of bounds by a
  // corrupt file. Needs only what open()'s O(1) checks established:
  // in-bounds sections and the CSR end-pins.
  const std::uint64_t bound = header_.id_bound;
  const auto offs = csr_offsets();
  const auto alive_b = alive_bytes();
  const std::uint8_t* member_b =
      has_engine_state() ? section<std::uint8_t>(ext_.membership_off) : nullptr;
  std::uint64_t live = 0;
  std::uint64_t members = 0;
  for (std::uint64_t v = 0; v < bound; ++v) {
    if (offs[v + 1] < offs[v]) return "CSR offsets not monotone";
    if (alive_b[v] > 1) return "alive section is not boolean";
    if (alive_b[v] == 0 && offs[v + 1] != offs[v]) return "deleted node has neighbors";
    live += alive_b[v];
    if (member_b != nullptr) {
      if (member_b[v] > 1) return "membership section is not boolean";
      if (member_b[v] > alive_b[v]) return "dead node marked as MIS member";
      members += member_b[v];
    }
  }
  if (live != header_.node_count) return "alive section disagrees with node_count";
  if (member_b != nullptr && members != ext_.mis_size)
    return "membership section disagrees with mis_size";
  for (const NodeId u : csr_neighbors())
    if (u >= bound) return "neighbor id out of range";
  // Full edge-table shape validation (capacity, occupancy ceiling,
  // classification counts) — the same predicate FlatSet::restore enforces,
  // so load() cannot fail on any snapshot open() accepted: corrupt tables
  // are rejected with an error string instead of aborting inside the
  // engine constructors.
  if (!util::FlatSet::validate_table_shape(
          edge_ctrl(), static_cast<std::size_t>(header_.edge_count),
          static_cast<std::size_t>(header_.edge_occupied)))
    return "edge table fails structural validation";
  return nullptr;
}

bool Snapshot::verify_checksum(std::string* error) const {
  if (!is_open()) {
    set_error(error, "snapshot is not open");
    return false;
  }
  const std::uint64_t checksum = util::fnv1a64(
      file_.data() + sizeof(SnapshotHeader), file_.size() - sizeof(SnapshotHeader));
  if (checksum != header_.payload_checksum) {
    set_error(error, "payload checksum mismatch (corrupt snapshot)");
    return false;
  }
  return true;
}

bool Snapshot::verify(std::string* error) const {
  if (!verify_checksum(error)) return false;
  // A shallow open skipped the linear pass, and the walks below index
  // through CSR offsets and neighbor ids: prove them in bounds first.
  if (!deep_validated_) {
    if (const char* message = linear_pass_error()) {
      set_error(error, message);
      return false;
    }
  }
  // The edge table is probed where it lies in the mapping, never copied.
  // Its shape is what bounds every probe chain (and open(kFull) or the
  // linear pass above already checked it; the recheck costs one SWAR scan).
  const auto ctrl = edge_ctrl();
  const auto table = edge_keys();
  if (!util::FlatSet::validate_table_shape(ctrl, static_cast<std::size_t>(edge_count()),
                                           static_cast<std::size_t>(edge_occupied()))) {
    set_error(error, "edge table fails structural validation");
    return false;
  }
  // Check the table against the CSR: every adjacency pair must be a table
  // hit with a reciprocal neighbor entry, and the table must contain
  // nothing else (size == edge_count, each directed pair counted once per
  // side). Linear-time undirectedness check (a per-entry scan of the other
  // endpoint's list would be quadratic on hubs): each table key can only be
  // produced by its two endpoints, so with the totals already validated at
  // open (2·edge_count entries, edge_count table keys) it suffices that
  // every entry's key is in the table and no node lists the same neighbor
  // twice: each key then accounts for exactly two entries, one per side —
  // i.e. the adjacency is symmetric.
  //
  // On a large table nearly every probe misses cache, so the entries go in
  // blocks: first each entry's key and hash, then the probes in CSR order
  // with the home group of the entry kAhead places on already in flight.
  // Every entry gets all its checks, in CSR order, before the next entry's,
  // so the first bad entry decides the message.
  constexpr std::size_t kBlock = 1024;
  constexpr std::size_t kAhead = 8;
  std::array<std::uint64_t, kBlock> block_keys{};
  std::array<std::uint64_t, kBlock> block_hashes{};
  std::array<NodeId, kBlock> block_owners{};
  const std::uint64_t* offs = csr_offsets().data();
  const NodeId* nbrs = csr_neighbors().data();
  const std::uint8_t* alive_b = alive_bytes().data();
  const std::uint64_t entries = 2 * edge_count();
  std::vector<NodeId> last_lister(id_bound(), kInvalidNode);
  NodeId lister = 0;  // owner of the next entry (offs is monotone, ends at `entries`)
  for (std::uint64_t first = 0; first < entries; first += kBlock) {
    const auto len = static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, entries - first));
    for (std::size_t k = 0; k < len; ++k) {
      while (offs[lister + 1] <= first + k) ++lister;
      block_owners[k] = lister;
      block_keys[k] = edge_key(nbrs[first + k], lister);
      block_hashes[k] = util::FlatSet::hash(block_keys[k]);
    }
    for (std::size_t k = 0; k < std::min(kAhead, len); ++k)
      util::FlatSet::prefetch_home(ctrl, table, block_hashes[k]);
    for (std::size_t k = 0; k < len; ++k) {
      if (k + kAhead < len)
        util::FlatSet::prefetch_home(ctrl, table, block_hashes[k + kAhead]);
      const NodeId u = nbrs[first + k];
      const NodeId owner = block_owners[k];
      if (u == owner) {
        set_error(error, "self-loop in adjacency");
        return false;
      }
      if (alive_b[u] == 0 ||
          !util::FlatSet::probe_hashed(ctrl, table, block_keys[k], block_hashes[k])) {
        set_error(error, "adjacency entry without a matching edge-table key");
        return false;
      }
      if (last_lister[u] == owner) {
        set_error(error, "duplicate adjacency entry");
        return false;
      }
      last_lister[u] = owner;
    }
  }
  if (has_engine_state()) {
    // The persisted membership must be the greedy fixpoint of the persisted
    // keys: v is a member iff no earlier-ordered live neighbor is. Greedy's
    // output is the *unique* membership with that property (paper §3), so
    // this one O(n + m) pass proves the engine state equals what a cold
    // start would recompute — the warm-start contract.
    const auto keys = priority_keys();
    const auto member = membership_bytes();
    // Mirrors core::priority_before (the strict total order on (key, id)
    // pairs); the graph layer cannot include core, and the tie rule is part
    // of the frozen format semantics now.
    const auto before = [](std::uint64_t ka, NodeId a, std::uint64_t kb,
                           NodeId b) noexcept {
      return ka != kb ? ka < kb : a < b;
    };
    for (NodeId v = 0; v < id_bound(); ++v) {
      if (!alive(v)) continue;
      bool blocked = false;
      for (const NodeId u : neighbors(v))
        blocked |= member[u] != 0 && before(keys[u], u, keys[v], v);
      if ((member[v] != 0) == blocked) {
        set_error(error,
                  "persisted membership is not the greedy fixpoint of the "
                  "persisted priority keys");
        return false;
      }
    }
  }
  return true;
}

namespace {

/// Compute the header (and, for v2+, the extension headers) a save will
/// write: section offsets, counts, file size — everything except the
/// payload checksum, which only exists once the payload has streamed.
/// `shard` non-null selects version 3: its table partitions [0, id_bound)
/// into shard->shard_count ranges balanced by adjacency mass (degree + 1
/// per node, so empty graphs still split evenly).
void layout_snapshot(const DynamicGraph& g, const util::FlatSet& edges,
                     const EngineStateView* state, SnapshotHeader* header,
                     SnapshotEngineExt* ext, SnapshotShardExt* shard = nullptr) {
  std::memcpy(header->magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  DMIS_ASSERT_MSG(shard == nullptr || state != nullptr,
                  "sharded snapshots carry engine state (v3 extends v2)");
  header->version = state == nullptr ? kSnapshotVersion
                    : shard == nullptr ? kSnapshotVersionEngine
                                       : kSnapshotVersionSharded;
  header->endian_tag = kSnapshotEndianTag;
  header->id_bound = g.id_bound();
  header->node_count = g.node_count();
  header->edge_count = g.edge_count();
  header->edge_capacity = edges.capacity();
  header->edge_occupied = edges.occupied();

  if (state != nullptr) {
    DMIS_ASSERT_MSG(state->keys.size() <= header->id_bound &&
                        state->membership.size() <= header->id_bound,
                    "engine state spans exceed the graph's id bound");
    ext->priority_seed = state->priority_seed;
    for (int w = 0; w < 4; ++w) ext->rng_state[w] = state->rng_state[w];
    for (const std::uint8_t m : state->membership) ext->mis_size += m;
  }

  if (shard != nullptr) {
    // Balance the shard ranges by adjacency mass (degree + 1 per id): each
    // interior boundary is the first id at which the running mass reaches
    // the next 1/shard_count fraction of the total, so parallel loaders get
    // near-equal byte work even on skewed graphs.
    const std::uint64_t shards = shard->shard_count;
    DMIS_ASSERT_MSG(shards >= 1 && shards <= kSnapshotMaxShards,
                    "shard count out of range");
    const std::uint64_t total =
        2 * header->edge_count + static_cast<std::uint64_t>(header->id_bound);
    std::uint64_t mass = 0;
    std::uint64_t next = 1;
    for (NodeId v = 0; v < header->id_bound && next < shards; ++v) {
      mass += 1 + (g.has_node(v) ? g.degree(v) : 0);
      while (next < shards && mass * shards >= next * total)
        shard->boundary[next++ - 1] = v + 1;
    }
    while (next < shards) shard->boundary[next++ - 1] = header->id_bound;
  }

  // Lay out the sections up front so the header can be written first.
  std::uint64_t off = sizeof(SnapshotHeader);
  if (state != nullptr) off += sizeof(SnapshotEngineExt);
  if (shard != nullptr) off += sizeof(SnapshotShardExt);
  header->alive_off = off;
  off = pad8(off + header->id_bound);
  header->offsets_off = off;
  off = pad8(off + (static_cast<std::uint64_t>(header->id_bound) + 1) * 8);
  header->neighbors_off = off;
  off = pad8(off + 2 * header->edge_count * sizeof(NodeId));
  header->edge_ctrl_off = off;
  off = pad8(off + header->edge_capacity);
  header->edge_keys_off = off;
  off = pad8(off + header->edge_capacity * 8);
  if (state != nullptr) {
    ext->keys_off = off;
    off = pad8(off + static_cast<std::uint64_t>(header->id_bound) * 8);
    ext->membership_off = off;
    off = pad8(off + header->id_bound);
  }
  header->file_size = off;
}

/// Stream the checksummed payload (everything after SnapshotHeader) through
/// `w` and flush it. Every sink — the stdio writer, the hash-only pre-pass,
/// an append-only WritableFile — runs this one function, so the byte stream
/// cannot drift between the paths.
bool stream_snapshot_payload(const DynamicGraph& g, const util::FlatSet& edges,
                             const SnapshotHeader& header,
                             const SnapshotEngineExt* ext,
                             const SnapshotShardExt* shard,
                             const EngineStateView* state, util::PayloadWriter& w) {
  bool ok = true;
  // The extension headers are part of the checksummed payload, so they
  // stream through the writer like any section (never patched afterwards).
  if (state != nullptr) ok = w.write(ext, sizeof(*ext));
  if (ok && shard != nullptr) ok = w.write(shard, sizeof(*shard));
  for (NodeId v = 0; ok && v < header.id_bound; ++v) {
    const std::uint8_t alive = g.has_node(v) ? 1 : 0;
    ok = w.write(&alive, 1);
  }
  ok = ok && w.align8();
  std::uint64_t running = 0;
  for (NodeId v = 0; ok && v < header.id_bound; ++v) {
    ok = w.write(&running, 8);
    if (g.has_node(v)) running += g.degree(v);
  }
  ok = ok && w.write(&running, 8) && w.align8();
  for (NodeId v = 0; ok && v < header.id_bound; ++v) {
    if (!g.has_node(v)) continue;
    const auto nbrs = g.neighbors(v);
    ok = w.write(nbrs.data(), nbrs.size_bytes());
  }
  ok = ok && w.align8();
  ok = ok && w.write(edges.raw_ctrl().data(), edges.raw_ctrl().size()) && w.align8();
  ok = ok && w.write(edges.raw_keys().data(), edges.raw_keys().size_bytes()) && w.align8();
  if (state != nullptr) {
    // Zero-pad short spans to id_bound: a trailing id without an entry is a
    // dead id that never drew a priority (see EngineStateView).
    static constexpr std::uint64_t zero_key = 0;
    ok = ok && w.write(state->keys.data(), state->keys.size_bytes());
    for (std::size_t v = state->keys.size(); ok && v < header.id_bound; ++v)
      ok = w.write(&zero_key, 8);
    ok = ok && w.align8();
    ok = ok && w.write(state->membership.data(), state->membership.size());
    static constexpr std::uint8_t zero_member = 0;
    for (std::size_t v = state->membership.size(); ok && v < header.id_bound; ++v)
      ok = w.write(&zero_member, 1);
    ok = ok && w.align8();
  }
  ok = ok && w.finish();
  DMIS_ASSERT(!ok || w.position() == header.file_size);
  return ok;
}

/// The one-pass stdio writer: header placeholder, payload, then the header
/// again with the checksum patched in.
bool write_via_stdio(const DynamicGraph& g, const util::FlatSet& edges,
                     SnapshotHeader header, const SnapshotEngineExt* ext,
                     const SnapshotShardExt* shard, const EngineStateView* state,
                     const std::string& tmp, std::string* error) {
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, util::errno_context(tmp, "fopen", errno));
    return false;
  }
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  util::PayloadWriter w(f, sizeof(SnapshotHeader));
  ok = ok && stream_snapshot_payload(g, edges, header, ext, shard, state, w);
  header.payload_checksum = w.checksum();
  ok = ok && std::fseek(f, 0, SEEK_SET) == 0 &&
       std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (!ok) set_error(error, util::errno_context(tmp, "fwrite", errno));
  // Durability before visibility: the temp file's bytes must be on disk
  // before the rename makes them the published snapshot.
  ok = ok && util::fsync_stream(f, tmp, error);
  return (std::fclose(f) == 0) && ok;
}

/// The factory-backed writer: same bytes, but every file operation goes
/// through an injectable WritableFile so tests can fail the temp write or
/// the pre-publish fsync at an exact byte (util/fault_file.hpp).
/// WritableFile is append-only — no seeking back to patch the header — so
/// this runs two passes: hash the payload first, then write the finished
/// header followed by the payload. The extra pass costs one walk over
/// in-memory state and buys the property the Checkpointer tests pin: a
/// save that dies at ANY point leaves the previously published snapshot
/// untouched.
bool write_via_factory(const DynamicGraph& g, const util::FlatSet& edges,
                       SnapshotHeader header, const SnapshotEngineExt* ext,
                       const SnapshotShardExt* shard, const EngineStateView* state,
                       const std::string& tmp, const util::FileFactory& factory,
                       std::string* error) {
  util::PayloadWriter hasher(sizeof(SnapshotHeader));
  stream_snapshot_payload(g, edges, header, ext, shard, state, hasher);
  header.payload_checksum = hasher.checksum();

  auto file = factory(tmp, error);
  if (file == nullptr) return false;
  util::PayloadWriter w(file.get(), sizeof(SnapshotHeader), error);
  bool ok = file->write(&header, sizeof(header), error) &&
            stream_snapshot_payload(g, edges, header, ext, shard, state, w);
  DMIS_ASSERT(!ok || w.checksum() == header.payload_checksum);
  ok = ok && file->sync(error);
  return file->close(ok ? error : nullptr) && ok;
}

/// Shared writer body: version 1 when `state` is null, version 2 otherwise,
/// version 3 with a shard_count. An empty `factory` takes the stdio path.
/// Crash-safe publish: the bytes stream into `path.tmp`, which is fsynced
/// and then renamed over `path`, so an interrupted save can never leave a
/// torn file at the published path — a reader sees the old snapshot or the
/// new one, never a mixture (util/fs.hpp documents the protocol).
bool save_snapshot_impl(const DynamicGraph& g, const EngineStateView* state,
                        const std::string& path, std::string* error,
                        std::uint32_t shard_count, const util::FileFactory& factory) {
  SnapshotHeader header{};
  SnapshotEngineExt ext{};
  SnapshotShardExt shard{};
  shard.shard_count = shard_count;
  SnapshotShardExt* shard_p = shard_count != 0 ? &shard : nullptr;
  // A borrowed graph's edge table is merged (base + overlay) into the
  // scratch here; a materialized graph's is referenced directly, no copy.
  util::FlatSet merged_scratch;
  const util::FlatSet& edges = g.merged_edge_set(merged_scratch);
  layout_snapshot(g, edges, state, &header, &ext, shard_p);

  const std::string tmp = path + ".tmp";
  const bool ok =
      factory ? write_via_factory(g, edges, header, &ext, shard_p, state, tmp, factory, error)
              : write_via_stdio(g, edges, header, &ext, shard_p, state, tmp, error);
  if (!ok || !util::atomic_publish(tmp, path, error)) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::uint32_t clamp_shards(std::uint32_t shard_count) {
  return std::clamp<std::uint32_t>(shard_count, 1, kSnapshotMaxShards);
}

}  // namespace

bool save_snapshot(const DynamicGraph& g, const std::string& path, std::string* error) {
  return save_snapshot_impl(g, nullptr, path, error, 0, {});
}

bool save_snapshot(const DynamicGraph& g, const std::string& path,
                   const util::FileFactory& factory, std::string* error) {
  return save_snapshot_impl(g, nullptr, path, error, 0, factory);
}

bool save_snapshot(const DynamicGraph& g, const EngineStateView& state,
                   const std::string& path, std::string* error) {
  return save_snapshot_impl(g, &state, path, error, 0, {});
}

bool save_snapshot(const DynamicGraph& g, const EngineStateView& state,
                   const std::string& path, const util::FileFactory& factory,
                   std::string* error) {
  return save_snapshot_impl(g, &state, path, error, 0, factory);
}

bool save_snapshot_sharded(const DynamicGraph& g, const EngineStateView& state,
                           const std::string& path, std::uint32_t shard_count,
                           std::string* error) {
  return save_snapshot_impl(g, &state, path, error, clamp_shards(shard_count), {});
}

bool save_snapshot_sharded(const DynamicGraph& g, const EngineStateView& state,
                           const std::string& path, std::uint32_t shard_count,
                           const util::FileFactory& factory, std::string* error) {
  return save_snapshot_impl(g, &state, path, error, clamp_shards(shard_count), factory);
}

DynamicGraph DynamicGraph::load(const Snapshot& snapshot) {
  DMIS_ASSERT_MSG(snapshot.is_open(), "load from a closed snapshot");
  DynamicGraph g;
  const NodeId bound = snapshot.id_bound();
  g.adjacency_.reserve(bound);
  g.overflow_.resize(bound);
  g.node_count_ = snapshot.node_count();
  // Raw-pointer walk of the mapped arrays (open() already bounds-checked
  // them). Records are assembled in a stack-resident cache line and pushed
  // once — resize() + patch would zero all 64 MB/million nodes first and
  // then rewrite most of it, and this loop runs at memory bandwidth.
  const std::uint64_t* offs = snapshot.csr_offsets().data();
  const NodeId* nbrs = snapshot.csr_neighbors().data();
  const std::uint8_t* alive = snapshot.alive_bytes().data();
  for (NodeId v = 0; v < bound; ++v) {
    AdjRecord rec;
    const std::uint64_t begin = offs[v];
    const auto deg = static_cast<std::uint32_t>(offs[v + 1] - begin);
    rec.alive = alive[v];
    rec.size = deg;
    if (deg > kInlineNeighbors) {
      rec.spilled = 1;
      g.overflow_[v].assign(nbrs + begin, nbrs + begin + deg);
    } else if (deg > 0) {
      std::memcpy(rec.inline_slots, nbrs + begin, deg * sizeof(NodeId));
    }
    g.adjacency_.push_back(rec);
  }
  g.bound_ = bound;
  const bool restored = g.edges_.restore(
      snapshot.edge_ctrl(), snapshot.edge_keys(),
      static_cast<std::size_t>(snapshot.edge_count()),
      static_cast<std::size_t>(snapshot.edge_occupied()));
  DMIS_ASSERT_MSG(restored, "snapshot edge table fails validation");
  return g;
}

DynamicGraph DynamicGraph::load(const Snapshot& snapshot, unsigned loaders) {
  DMIS_ASSERT_MSG(snapshot.is_open(), "load from a closed snapshot");
  const std::uint32_t shards = snapshot.shard_count();
  if (shards <= 1 || loaders <= 1) return load(snapshot);
  DynamicGraph g;
  const NodeId bound = snapshot.id_bound();
  // Parallel fill needs random-index writes, so the adjacency array is
  // resized up front (the zero-fill is repaid by the shard fan-out) and each
  // loader rewrites its disjoint [shard_begin, shard_end) id range.
  g.adjacency_.resize(bound);
  g.overflow_.resize(bound);
  g.node_count_ = snapshot.node_count();
  const std::uint64_t* offs = snapshot.csr_offsets().data();
  const NodeId* nbrs = snapshot.csr_neighbors().data();
  const std::uint8_t* alive = snapshot.alive_bytes().data();
  const auto fill = [&](NodeId begin, NodeId end) {
    for (NodeId v = begin; v < end; ++v) {
      AdjRecord rec;
      const std::uint64_t first = offs[v];
      const auto deg = static_cast<std::uint32_t>(offs[v + 1] - first);
      rec.alive = alive[v];
      rec.size = deg;
      if (deg > kInlineNeighbors) {
        rec.spilled = 1;
        g.overflow_[v].assign(nbrs + first, nbrs + first + deg);
      } else if (deg > 0) {
        std::memcpy(rec.inline_slots, nbrs + first, deg * sizeof(NodeId));
      }
      g.adjacency_[v] = rec;
    }
  };
  // One loader per claimed shard, capped at `loaders`; loader t adopts the
  // shards congruent to t so the mass-balanced boundaries spread evenly.
  // The caller is loader 0.
  const unsigned active = std::min<unsigned>(loaders, shards);
  std::vector<std::thread> crew;
  crew.reserve(active - 1);
  const auto drive = [&](unsigned t) {
    for (std::uint32_t s = t; s < shards; s += active)
      fill(snapshot.shard_begin(s), snapshot.shard_end(s));
  };
  for (unsigned t = 1; t < active; ++t) crew.emplace_back(drive, t);
  drive(0);
  for (std::thread& th : crew) th.join();
  g.bound_ = bound;
  const bool restored = g.edges_.restore(
      snapshot.edge_ctrl(), snapshot.edge_keys(),
      static_cast<std::size_t>(snapshot.edge_count()),
      static_cast<std::size_t>(snapshot.edge_occupied()));
  DMIS_ASSERT_MSG(restored, "snapshot edge table fails validation");
  return g;
}

DynamicGraph DynamicGraph::borrow(std::shared_ptr<const Snapshot> snapshot) {
  DMIS_ASSERT_MSG(snapshot != nullptr && snapshot->is_open(),
                  "borrow from a closed snapshot");
  DynamicGraph g;
  g.base_ = std::move(snapshot);
  const Snapshot& s = *g.base_;
  g.base_alive_ = s.alive_bytes().data();
  g.base_offs_ = s.csr_offsets().data();
  g.base_nbrs_ = s.csr_neighbors().data();
  g.base_ctrl_ = s.edge_ctrl().data();
  g.base_keys_ = s.edge_keys().data();
  g.base_bound_ = s.id_bound();
  g.bound_ = s.id_bound();
  g.base_edge_count_ = s.edge_count();
  g.base_edge_capacity_ = s.edge_ctrl().size();
  g.base_edge_occupied_ = static_cast<std::size_t>(s.edge_occupied());
  g.node_count_ = s.node_count();
  if (!s.deep_validated() && g.base_bound_ > 0) {
    // Shallow-opened base: arm the lazy per-node CSR guards (one bit per
    // node, value-initialized to "unchecked"). Deep-validated bases skip
    // the bitmap entirely — check_base_node is then a single null test.
    const std::size_t words = (static_cast<std::size_t>(g.base_bound_) + 63) / 64;
    g.base_checked_.reset(new std::atomic<std::uint64_t>[words]());
  }
  return g;
}

bool DynamicGraph::save(const std::string& path, std::string* error) const {
  return save_snapshot(*this, path, error);
}

}  // namespace dmis::graph
