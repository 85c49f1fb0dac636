// CRC-32C (Castagnoli) — the per-record checksum of the write-ahead log
// (service/wal.hpp, docs/FORMATS.md).
//
// The snapshot and trace formats use a whole-payload FNV-1a because they
// are written once and validated once; a WAL record must instead be
// validated *individually* so a torn final record can be rejected without
// giving up the valid prefix, and a 32-bit CRC detects the failure mode
// that actually occurs there — a record whose tail bytes are missing or
// zero-filled after a crash mid-write. CRC-32C is the conventional choice
// (iSCSI, ext4, LevelDB/RocksDB record framing).
//
// Every record is checksummed twice on the replicated serving path (the
// leader's append, the follower's read), so the speed matters: crc32c()
// runs the CPU's CRC32C instruction (SSE4.2 `crc32` on x86-64, the ARMv8
// CRC32 extension on aarch64) when a one-time CPU check finds it — 8 bytes
// per instruction, ~20x the table loop on an 11 KiB record — and the
// reflected table-driven loop otherwise. No build flag is involved; both
// paths produce identical values (tests/test_util.cpp holds them to each
// other).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dmis::util {

/// CRC-32C of `size` bytes. Chainable: pass a previous result as `seed` to
/// extend the CRC over discontiguous spans.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t size,
                                   std::uint32_t seed = 0);

namespace detail {

/// The two implementations behind crc32c(), same contract as crc32c(),
/// exposed so a test can compare them.
[[nodiscard]] std::uint32_t crc32c_portable(const void* data, std::size_t size,
                                            std::uint32_t seed);
/// Only call when crc32c_hardware_available().
[[nodiscard]] std::uint32_t crc32c_hardware(const void* data, std::size_t size,
                                            std::uint32_t seed);
/// Whether this CPU has the CRC32C instruction (checked once).
[[nodiscard]] bool crc32c_hardware_available() noexcept;

}  // namespace detail

}  // namespace dmis::util
