#include "util/fs.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/binary_io.hpp"  // set_error

#if defined(__unix__) || defined(__APPLE__)
#define DMIS_HAVE_POSIX_FS 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dmis::util {

std::string errno_context(const std::string& path, const char* syscall, int err) {
  return path + ": " + syscall + ": " + std::strerror(err) + " (errno " +
         std::to_string(err) + ")";
}

bool fsync_fd(int fd, const std::string& path, std::string* error) {
#if defined(DMIS_HAVE_POSIX_FS)
  if (::fsync(fd) != 0) {
    set_error(error, errno_context(path, "fsync", errno));
    return false;
  }
#else
  (void)fd;
  (void)path;
  (void)error;
#endif
  return true;
}

bool fsync_stream(std::FILE* f, const std::string& path, std::string* error) {
  if (std::fflush(f) != 0) {
    set_error(error, errno_context(path, "fflush", errno));
    return false;
  }
#if defined(DMIS_HAVE_POSIX_FS)
  return fsync_fd(::fileno(f), path, error);
#else
  return true;
#endif
}

void fsync_parent_dir(const std::string& path) {
#if defined(DMIS_HAVE_POSIX_FS)
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);  // EINVAL/EROFS on some filesystems — best effort
  ::close(fd);
#else
  (void)path;
#endif
}

bool atomic_publish(const std::string& tmp_path, const std::string& final_path,
                    std::string* error) {
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    set_error(error, errno_context(final_path, "rename", errno));
    return false;
  }
  fsync_parent_dir(final_path);
  return true;
}

bool ensure_dir(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    set_error(error, dir + ": create_directories: " + ec.message());
    return false;
  }
  if (!std::filesystem::is_directory(dir, ec)) {
    set_error(error, dir + ": not a directory");
    return false;
  }
  return true;
}

bool remove_file(const std::string& path, std::string* error) {
  if (std::remove(path.c_str()) != 0) {
    set_error(error, errno_context(path, "unlink", errno));
    return false;
  }
  return true;
}

ReadableFile::ReadableFile(ReadableFile&& other) noexcept { *this = std::move(other); }

ReadableFile& ReadableFile::operator=(ReadableFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
  }
  return *this;
}

bool ReadableFile::is_open() const noexcept { return fd_ >= 0 || file_ != nullptr; }

void ReadableFile::close() noexcept {
#if defined(DMIS_HAVE_POSIX_FS)
  if (fd_ >= 0) ::close(fd_);
#endif
  if (file_ != nullptr) std::fclose(file_);
  fd_ = -1;
  file_ = nullptr;
  path_.clear();
}

bool ReadableFile::open(const std::string& path, std::string* error) {
  close();
#if defined(DMIS_HAVE_POSIX_FS)
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    set_error(error, errno_context(path, "open", errno));
    return false;
  }
#else
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    set_error(error, errno_context(path, "fopen", errno));
    return false;
  }
#endif
  path_ = path;
  return true;
}

bool ReadableFile::read_at(std::uint64_t offset, void* out, std::size_t bytes,
                           std::string* error) const {
  auto* dst = static_cast<std::uint8_t*>(out);
#if defined(DMIS_HAVE_POSIX_FS)
  while (bytes > 0) {
    const ::ssize_t got = ::pread(fd_, dst, bytes, static_cast<::off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      set_error(error, got < 0 ? errno_context(path_, "pread", errno)
                               : path_ + ": pread: short read");
      return false;
    }
    dst += got;
    offset += static_cast<std::uint64_t>(got);
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
#else
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(dst, 1, bytes, file_) != bytes) {
    set_error(error, path_ + ": fread: short read");
    return false;
  }
  return true;
#endif
}

bool ReadableFile::stat(std::uint64_t* size, bool* unlinked, std::string* error) const {
#if defined(DMIS_HAVE_POSIX_FS)
  struct ::stat st {};
  if (::fstat(fd_, &st) != 0) {
    set_error(error, errno_context(path_, "fstat", errno));
    return false;
  }
  *size = static_cast<std::uint64_t>(st.st_size);
  *unlinked = st.st_nlink == 0;
  return true;
#else
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path_, ec);
  *unlinked = static_cast<bool>(ec);
  *size = ec ? 0 : static_cast<std::uint64_t>(bytes);
  (void)error;
  return true;
#endif
}

}  // namespace dmis::util
