// Shared plumbing for the binary on-disk formats (graph snapshot, topology
// trace — docs/FORMATS.md): 8-byte section alignment, the FNV-1a payload
// checksum, and a block-buffered section writer that hashes what it writes.
// Both writers go through this one implementation so the padding and
// checksum-coverage rules cannot drift between formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

namespace dmis::util {

inline constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;

/// FNV-1a 64 — the payload checksum of both binary formats.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                                           std::uint64_t seed = kFnv1aSeed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] constexpr std::uint64_t pad8(std::uint64_t off) noexcept {
  return (off + 7) & ~static_cast<std::uint64_t>(7);
}

inline void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

class WritableFile;

/// Block-buffered payload writer. Section bytes are collected into one
/// block of kBlockBytes; each full block is run through the FNV-1a payload
/// checksum and handed to the sink in one write, so a per-node 1- or 8-byte
/// section write is a memcpy rather than a stdio call plus a hash call.
/// Section starts are zero-padded to 8 bytes (pad bytes are part of the
/// checksummed payload). `header_bytes` is the file offset where the
/// payload begins — the caller writes the header itself.
///
/// Three sinks, one byte stream:
///   * a stdio FILE — the one-pass writer, which seeks back afterwards to
///     patch the header with checksum();
///   * a util::WritableFile — append-only (fault-injectable) saves, which
///     cannot seek back and so run a hash-only pass first;
///   * none — that hash-only pre-pass.
/// Call finish() after the last write; it flushes the partial block, and
/// checksum() then covers the whole payload. The bytes and the checksum are
/// exactly what an unbuffered per-call writer would produce.
class PayloadWriter {
 public:
  /// Large enough that a per-block write and hash call cost nothing next
  /// to the block's bytes; small enough that the block, freed back to the
  /// heap after a save, does not show in a small service's resident set.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  /// Hash only: a checksum pre-pass.
  explicit PayloadWriter(std::uint64_t header_bytes);
  PayloadWriter(std::FILE* f, std::uint64_t header_bytes);
  /// Write failures land in *error (as the WritableFile reports them).
  PayloadWriter(WritableFile* file, std::uint64_t header_bytes, std::string* error);

  bool write(const void* data, std::size_t bytes) {
    if (bytes <= kBlockBytes - fill_) {
      if (bytes != 0) std::memcpy(block_.get() + fill_, data, bytes);
      fill_ += bytes;
      return true;
    }
    return write_through(static_cast<const std::uint8_t*>(data), bytes);
  }

  /// Zero-pad so the next section starts 8-byte aligned.
  bool align8() {
    static constexpr std::uint8_t zeros[8] = {};
    const std::uint64_t target = pad8(position());
    return write(zeros, static_cast<std::size_t>(target - position()));
  }

  /// Flush the partial block. False if any write to the sink failed.
  bool finish() { return flush(); }

  [[nodiscard]] std::uint64_t position() const noexcept {
    return header_bytes_ + emitted_ + fill_;
  }
  /// FNV-1a over every payload byte; valid after finish().
  [[nodiscard]] std::uint64_t checksum() const noexcept { return hash_; }

 private:
  /// Flush the block, then hash and emit `data` straight from the caller's
  /// memory (a write larger than the block space left is never copied).
  bool write_through(const std::uint8_t* data, std::size_t bytes);
  bool flush();
  bool emit(const std::uint8_t* data, std::size_t bytes);

  std::FILE* f_ = nullptr;
  WritableFile* file_ = nullptr;
  std::string* error_ = nullptr;
  std::uint64_t header_bytes_;
  std::unique_ptr<std::uint8_t[]> block_;
  std::size_t fill_ = 0;        // buffered bytes in block_
  std::uint64_t emitted_ = 0;   // bytes hashed and handed to the sink
  std::uint64_t hash_ = kFnv1aSeed;
  bool ok_ = true;
};

}  // namespace dmis::util
