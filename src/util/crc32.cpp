#include "util/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DMIS_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__linux__) || defined(__APPLE__))
#define DMIS_CRC32C_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace dmis::util {

namespace {

consteval std::array<std::uint32_t, 256> crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) != 0 ? (0x82F63B78U ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = crc32c_table();

#if defined(DMIS_CRC32C_X86)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_instr(std::uint32_t c,
                                                              const std::uint8_t* p,
                                                              std::size_t n) {
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return c;
}
#elif defined(DMIS_CRC32C_ARM)
#if defined(__clang__)
__attribute__((target("crc")))
#else
__attribute__((target("+crc")))
#endif
std::uint32_t crc32c_instr(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = __crc32cd(c, word);
  }
  for (; n > 0; --n, ++p) c = __crc32cb(c, *p);
  return c;
}
#endif

bool detect_crc32c_instr() noexcept {
#if defined(DMIS_CRC32C_X86)
  return __builtin_cpu_supports("sse4.2") != 0;
#elif defined(DMIS_CRC32C_ARM) && defined(__APPLE__)
  return true;  // every Apple arm64 core has the CRC32 extension
#elif defined(DMIS_CRC32C_ARM)
  return (::getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return false;
#endif
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) c = kCrc32cTable[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c_hardware(const void* data, std::size_t size, std::uint32_t seed) {
#if defined(DMIS_CRC32C_X86) || defined(DMIS_CRC32C_ARM)
  return ~crc32c_instr(~seed, static_cast<const std::uint8_t*>(data), size);
#else
  return crc32c_portable(data, size, seed);
#endif
}

bool crc32c_hardware_available() noexcept {
  static const bool available = detect_crc32c_instr();
  return available;
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  return detail::crc32c_hardware_available() ? detail::crc32c_hardware(data, size, seed)
                                             : detail::crc32c_portable(data, size, seed);
}

}  // namespace dmis::util
