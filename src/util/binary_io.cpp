#include "util/binary_io.hpp"

#include "util/fault_file.hpp"

namespace dmis::util {

PayloadWriter::PayloadWriter(std::uint64_t header_bytes)
    : header_bytes_(header_bytes),
      block_(std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes)) {}

PayloadWriter::PayloadWriter(std::FILE* f, std::uint64_t header_bytes)
    : PayloadWriter(header_bytes) {
  f_ = f;
}

PayloadWriter::PayloadWriter(WritableFile* file, std::uint64_t header_bytes,
                             std::string* error)
    : PayloadWriter(header_bytes) {
  file_ = file;
  error_ = error;
}

bool PayloadWriter::emit(const std::uint8_t* data, std::size_t bytes) {
  if (!ok_) return false;
  hash_ = fnv1a64(data, bytes, hash_);
  emitted_ += bytes;
  if (f_ != nullptr) ok_ = std::fwrite(data, 1, bytes, f_) == bytes;
  else if (file_ != nullptr) ok_ = file_->write(data, bytes, error_);
  return ok_;
}

bool PayloadWriter::flush() {
  if (fill_ == 0) return ok_;
  const std::size_t bytes = fill_;
  fill_ = 0;
  return emit(block_.get(), bytes);
}

bool PayloadWriter::write_through(const std::uint8_t* data, std::size_t bytes) {
  if (!flush()) return false;
  if (bytes >= kBlockBytes) return emit(data, bytes);
  std::memcpy(block_.get(), data, bytes);
  fill_ = bytes;
  return true;
}

}  // namespace dmis::util
