// MmapFile — RAII read-only file mapping with a scalar (read-into-buffer)
// fallback.
//
// The snapshot and trace formats (graph/snapshot.hpp, workload/trace_file.hpp)
// are designed to be consumed in place: open the file, validate the header,
// and hand out spans into the mapped bytes without copying anything. mmap(2)
// provides that on POSIX systems and additionally defers I/O to page faults,
// so opening a multi-gigabyte snapshot costs microseconds and only the pages
// actually touched are ever read. On platforms without mmap (or when the call
// fails — e.g. some network filesystems), the fallback reads the whole file
// into an owned buffer; every consumer sees the same data()/size() contract
// either way. -DDMIS_NO_MMAP forces the fallback at compile time, and the
// `force_read` argument forces it at runtime so tests exercise both paths on
// any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmis::util {

/// Paging advice forwarded to madvise(2) on the mapped path. The fallback
/// buffer is ordinary heap memory, so advice is accepted and ignored there —
/// callers express access intent unconditionally and the OS applies it where
/// it can.
enum class MapAdvice : std::uint8_t {
  kNormal,      ///< default kernel readahead
  kSequential,  ///< aggressive readahead, drop-behind (bulk materialize)
  kRandom,      ///< disable readahead (point lookups over a huge file)
  kWillNeed,    ///< asynchronously page in the region
  kDontNeed,    ///< drop clean pages; a later touch re-faults from the file
};

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { reset(); }

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Map (or read) `path`. Returns false and fills *error on failure; the
  /// object is left closed. `force_read` skips mmap and takes the owned-
  /// buffer path unconditionally.
  bool open(const std::string& path, std::string* error = nullptr,
            bool force_read = false);

  /// Tail mode, for a file another writer only appends to (a live WAL
  /// segment): open() that also keeps the descriptor and maps address space
  /// past EOF (at least twice the size, 1 MiB minimum), so grow() can extend
  /// the view in place.
  bool open_tail(const std::string& path, std::string* error = nullptr,
                 bool force_read = false);

  /// Tail mode only: extend size() to the file's current length. True iff
  /// the view grew; false when it did not or on error (*error set). Growth
  /// inside the reservation costs one fstat and touches no mapping; past it
  /// the file is mapped again with a doubled reservation, and on the read
  /// fallback only the new suffix is read. Pointers into the old view stay
  /// valid unless the mapping moved (or the fallback buffer reallocated).
  bool grow(std::string* error = nullptr);

  /// Tail mode: drop this process's page mappings of the whole pages below
  /// `offset` (bytes a sequential reader is done with), at most once per
  /// MiB of progress, so the resident set holds the unread tail rather than
  /// the whole file. The bytes stay readable — a later touch faults them
  /// back in from the page cache. No-op on the read fallback.
  void release_below(std::size_t offset) noexcept;

  /// Unmap / free and return to the closed state.
  void reset() noexcept;

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  /// True when data() points into an mmap'd region (zero-copy); false when
  /// it points at the owned fallback buffer.
  [[nodiscard]] bool is_mapped() const noexcept { return map_ != nullptr; }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return map_ != nullptr ? static_cast<const std::uint8_t*>(map_) : buffer_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Advise the kernel about the expected access pattern. True on success
  /// (including the fallback path, where there is nothing to advise, and a
  /// closed or empty file). The mapping is MAP_PRIVATE and read-only, so
  /// even kDontNeed is non-destructive: dropped pages re-fault from the
  /// file on the next touch.
  bool advise(MapAdvice advice) const noexcept;

  /// Bytes of the view currently resident in physical memory, via
  /// mincore(2) on the mapped path — what this process actually holds in
  /// RAM, as opposed to size(), which is what it *could* fault in. The
  /// fallback buffer is owned heap memory and reported as fully resident.
  /// Returns size() if the residency query itself fails (over-reporting is
  /// the safe direction for an operator sizing memory).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  bool open_impl(const std::string& path, std::string* error, bool force_read, bool tail);
  bool map_tail(std::size_t at_least);

  void* map_ = nullptr;  // mmap base, or nullptr on the fallback path
  std::size_t size_ = 0;
  std::size_t map_len_ = 0;  // mapped bytes: size_, or the tail reservation
  std::size_t released_ = 0;  // tail mode: prefix given back by release_below
  int fd_ = -1;              // tail mode on the mapped path only
  bool tail_ = false;
  std::string path_;         // tail mode: for grow()'s errors and re-reads
  std::vector<std::uint8_t> buffer_;  // fallback storage (empty when mapped)
  bool open_ = false;
};

}  // namespace dmis::util
