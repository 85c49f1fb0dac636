#include "util/mmap_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/binary_io.hpp"  // set_error
#include "util/fs.hpp"         // errno_context

#if !defined(DMIS_NO_MMAP) && (defined(__unix__) || defined(__APPLE__))
#define DMIS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dmis::util {

namespace {

bool read_whole_file(const std::string& path, std::vector<std::uint8_t>& out,
                     std::string* error) {
  // Size via the filesystem, not long ftell — this is the only path on
  // platforms without mmap, and a 32-bit long would cap it at 2 GiB.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    set_error(error, path + ": file_size: " + ec.message() + " (code " +
                         std::to_string(ec.value()) + ")");
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, errno_context(path, "fopen", errno));
    return false;
  }
  out.resize(static_cast<std::size_t>(size));
  const std::size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  const int read_errno = errno;
  std::fclose(f);
  if (got != out.size()) {
    set_error(error, path + ": fread: short read (" + std::to_string(got) + " of " +
                         std::to_string(out.size()) + " bytes, " +
                         std::strerror(read_errno) + ")");
    return false;
  }
  return true;
}

}  // namespace

bool MmapFile::advise(MapAdvice advice) const noexcept {
#if defined(DMIS_HAVE_MMAP)
  if (map_ == nullptr || size_ == 0) return true;  // nothing mapped to advise
  int native = MADV_NORMAL;
  switch (advice) {
    case MapAdvice::kNormal: native = MADV_NORMAL; break;
    case MapAdvice::kSequential: native = MADV_SEQUENTIAL; break;
    case MapAdvice::kRandom: native = MADV_RANDOM; break;
    case MapAdvice::kWillNeed: native = MADV_WILLNEED; break;
    case MapAdvice::kDontNeed: native = MADV_DONTNEED; break;
  }
  return ::madvise(map_, size_, native) == 0;
#else
  (void)advice;
  return true;
#endif
}

std::size_t MmapFile::resident_bytes() const noexcept {
#if defined(DMIS_HAVE_MMAP)
  if (map_ != nullptr && size_ > 0) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t pages = (size_ + page - 1) / page;
    // mincore wants one byte per page; a vector here is fine — this is an
    // observability call (stats/bench), never a hot path.
    std::vector<unsigned char> vec(pages);
#if defined(__linux__)
    if (::mincore(map_, size_, vec.data()) != 0) return size_;
#else
    if (::mincore(map_, size_, reinterpret_cast<char*>(vec.data())) != 0) return size_;
#endif
    std::size_t resident_pages = 0;
    for (const unsigned char b : vec) resident_pages += b & 1U;
    const std::size_t bytes = resident_pages * page;
    return bytes < size_ ? bytes : size_;
  }
#endif
  return buffer_.size();  // owned fallback buffer: fully resident
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    reset();
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
    map_len_ = std::exchange(other.map_len_, 0);
    released_ = std::exchange(other.released_, 0);
    fd_ = std::exchange(other.fd_, -1);
    tail_ = std::exchange(other.tail_, false);
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    other.buffer_.clear();
    open_ = std::exchange(other.open_, false);
  }
  return *this;
}

void MmapFile::reset() noexcept {
#if defined(DMIS_HAVE_MMAP)
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
#endif
  map_ = nullptr;
  size_ = 0;
  map_len_ = 0;
  released_ = 0;
  fd_ = -1;
  tail_ = false;
  path_.clear();
  buffer_.clear();
  buffer_.shrink_to_fit();
  open_ = false;
}

bool MmapFile::open(const std::string& path, std::string* error, bool force_read) {
  return open_impl(path, error, force_read, false);
}

bool MmapFile::open_tail(const std::string& path, std::string* error, bool force_read) {
  return open_impl(path, error, force_read, true);
}

bool MmapFile::open_impl(const std::string& path, std::string* error, bool force_read,
                         bool tail) {
  reset();
#if defined(DMIS_HAVE_MMAP)
  if (!force_read) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      set_error(error, errno_context(path, "open", errno));
      return false;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      set_error(error, errno_context(path, "fstat", errno));
      ::close(fd);
      return false;
    }
    if (!S_ISREG(st.st_mode)) {
      set_error(error, path + ": fstat: not a regular file");
      ::close(fd);
      return false;
    }
    size_ = static_cast<std::size_t>(st.st_size);
    bool mapped = true;
    if (tail) {
      fd_ = fd;  // held for grow()
      mapped = map_tail(size_);
    } else {
      if (size_ > 0) {
        void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        mapped = base != MAP_FAILED;
        if (mapped) {
          map_ = base;
          map_len_ = size_;
        }
      }
      ::close(fd);
    }
    if (mapped) {
      tail_ = tail;
      if (tail) path_ = path;
      open_ = true;
      return true;
    }
    // mmap can fail on exotic filesystems; degrade to the read path.
    reset();
  }
#else
  (void)force_read;
#endif
  if (!read_whole_file(path, buffer_, error)) return false;
  size_ = buffer_.size();
  tail_ = tail;
  if (tail) path_ = path;
  open_ = true;
  return true;
}

bool MmapFile::map_tail(std::size_t at_least) {
#if defined(DMIS_HAVE_MMAP)
  // A shared read-only mapping of the page cache: bytes another process
  // appends with write(2) show up in it without a new mmap, and pages past
  // EOF are never touched because reads stop at size_.
  constexpr std::size_t kMinReserve = std::size_t{1} << 20;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t len = at_least * 2 > kMinReserve ? at_least * 2 : kMinReserve;
  len = (len + page - 1) / page * page;
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd_, 0);
  if (base == MAP_FAILED) return false;
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = base;
  map_len_ = len;
  released_ = 0;
  return true;
#else
  (void)at_least;
  return false;
#endif
}

bool MmapFile::grow(std::string* error) {
  if (!open_ || !tail_) return false;
#if defined(DMIS_HAVE_MMAP)
  if (fd_ >= 0) {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      set_error(error, errno_context(path_, "fstat", errno));
      return false;
    }
    const auto now = static_cast<std::size_t>(st.st_size);
    if (now <= size_) return false;
    if (now > map_len_ && !map_tail(now)) {
      set_error(error, errno_context(path_, "mmap", errno));
      return false;
    }
    size_ = now;
    return true;
  }
#endif
  // Read fallback: append only the suffix written since the last look.
  std::error_code ec;
  const std::uintmax_t now = std::filesystem::file_size(path_, ec);
  if (ec) {
    set_error(error, path_ + ": file_size: " + ec.message());
    return false;
  }
  if (now <= size_) return false;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, errno_context(path_, "fopen", errno));
    return false;
  }
  buffer_.resize(static_cast<std::size_t>(now));
  const bool ok = std::fseek(f, static_cast<long>(size_), SEEK_SET) == 0 &&
                  std::fread(buffer_.data() + size_, 1, buffer_.size() - size_, f) ==
                      buffer_.size() - size_;
  std::fclose(f);
  if (!ok) {
    buffer_.resize(size_);
    set_error(error, path_ + ": fread: short read of the grown suffix");
    return false;
  }
  size_ = buffer_.size();
  return true;
}

void MmapFile::release_below(std::size_t offset) noexcept {
#if defined(DMIS_HAVE_MMAP)
  constexpr std::size_t kStep = std::size_t{1} << 20;
  offset = std::min(offset, size_);
  if (!tail_ || map_ == nullptr || offset < released_ + kStep) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t end = offset / page * page;
  // MADV_DONTNEED on a shared file mapping drops only the page-table
  // entries; the page cache, and so the bytes, are untouched.
  (void)::madvise(static_cast<std::uint8_t*>(map_) + released_, end - released_,
                  MADV_DONTNEED);
  released_ = end;
#else
  (void)offset;
#endif
}

}  // namespace dmis::util
