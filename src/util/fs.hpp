// Filesystem durability helpers shared by every on-disk writer (snapshot,
// trace, WAL segments, checkpoints).
//
// Two concerns live here because they are inseparable in practice:
//
//   * errno context — every failing syscall is reported as
//     "path: syscall: strerror (errno N)", so a recovery log says *why* a
//     segment was rejected (ENOSPC vs EIO vs EACCES changes the operator's
//     next move) instead of a bare "write failed".
//
//   * the atomic-publish protocol — write to `path.tmp`, fsync the file,
//     rename(2) over `path`, fsync the directory. rename is atomic on
//     POSIX filesystems, so a reader can never observe a half-written file
//     at the published path: it sees either the old complete file or the
//     new complete file. The directory fsync only narrows the window in
//     which a crash can lose the rename itself (the old file then
//     survives, which is still a consistent state); it is best-effort
//     because several filesystems reject fsync on directory fds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace dmis::util {

/// "path: syscall: strerror (errno N)" — the one error format every I/O
/// path in this repository uses.
[[nodiscard]] std::string errno_context(const std::string& path, const char* syscall,
                                        int err);

/// fsync a raw descriptor; false (with *error) on failure.
bool fsync_fd(int fd, const std::string& path, std::string* error);

/// fflush + fsync a stdio stream: after this returns true, everything
/// written to `f` is durable (modulo lying hardware).
bool fsync_stream(std::FILE* f, const std::string& path, std::string* error);

/// Best-effort fsync of the directory containing `path` (makes a recent
/// create/rename/unlink in that directory durable). Failures are ignored —
/// see the header comment.
void fsync_parent_dir(const std::string& path);

/// rename `tmp_path` over `final_path` (atomic replace) and fsync the
/// parent directory. The caller must have fsynced `tmp_path`'s contents
/// first; fsync_stream does that.
bool atomic_publish(const std::string& tmp_path, const std::string& final_path,
                    std::string* error);

/// A held read-only handle for positional reads of a file that another
/// writer appends to or unlinks (the log shipper's source segment or
/// checkpoint): one open per file instead of one per read, and size and
/// liveness from fstat on the descriptor instead of a path lookup.
class ReadableFile {
 public:
  ReadableFile() = default;
  ~ReadableFile() { close(); }
  ReadableFile(ReadableFile&& other) noexcept;
  ReadableFile& operator=(ReadableFile&& other) noexcept;

  bool open(const std::string& path, std::string* error);
  void close() noexcept;
  [[nodiscard]] bool is_open() const noexcept;

  /// Read exactly `bytes` at `offset`; false (with *error) on an error or a
  /// short read.
  bool read_at(std::uint64_t offset, void* out, std::size_t bytes,
               std::string* error) const;

  /// The file's current size, and whether its last name was unlinked since
  /// open (the bytes stay readable through the handle either way).
  bool stat(std::uint64_t* size, bool* unlinked, std::string* error) const;

 private:
  int fd_ = -1;
  std::FILE* file_ = nullptr;  // platforms without POSIX descriptors
  std::string path_;
};

/// mkdir -p equivalent; true if the directory exists afterwards.
bool ensure_dir(const std::string& dir, std::string* error);

/// unlink with errno context; removing a file that does not exist is an
/// error (callers decide whether absence is fine before calling).
bool remove_file(const std::string& path, std::string* error);

}  // namespace dmis::util
