// util::MmapFile — the mapped path and the owned-buffer fallback must be
// observationally identical through data()/size(), and the new paging
// controls (advise / resident_bytes) must be safe no-ops wherever the
// platform cannot honor them. The borrowed-snapshot machinery (PR 8) leans
// on both: DynamicGraph::borrow reads the mapped bytes in place and the
// stats tooling reports resident vs mapped, so these contracts get their
// own tests instead of riding along in test_snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "util/mmap_file.hpp"

namespace {

using dmis::util::MapAdvice;
using dmis::util::MmapFile;

class MmapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "dmis_mmap_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::vector<std::uint8_t>& bytes) {
    const std::string path = (dir_ / name).string();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty()) {
      EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
    return path;
  }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::iota(bytes.begin(), bytes.end(), static_cast<std::uint8_t>(7));
  return bytes;
}

TEST_F(MmapFileTest, BothPathsSeeIdenticalBytes) {
  const auto bytes = pattern(3 * 4096 + 123);  // straddles page boundaries
  const std::string path = write_file("data.bin", bytes);
  for (const bool force_read : {false, true}) {
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error, force_read)) << error;
    EXPECT_TRUE(file.is_open());
    if (force_read) {
      EXPECT_FALSE(file.is_mapped());
    }
    ASSERT_EQ(file.size(), bytes.size());
    EXPECT_EQ(std::memcmp(file.data(), bytes.data(), bytes.size()), 0);
  }
}

TEST_F(MmapFileTest, AdviseSucceedsOnEveryPatternAndBothPaths) {
  const std::string path = write_file("advice.bin", pattern(8 * 4096));
  for (const bool force_read : {false, true}) {
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error, force_read)) << error;
    for (const MapAdvice advice :
         {MapAdvice::kNormal, MapAdvice::kSequential, MapAdvice::kRandom,
          MapAdvice::kWillNeed, MapAdvice::kDontNeed}) {
      EXPECT_TRUE(file.advise(advice));
    }
    // Post-advice the bytes must still read back intact: the mapping is
    // read-only MAP_PRIVATE, so even kDontNeed only drops *clean* pages,
    // which re-fault from the file.
    const auto bytes = pattern(8 * 4096);
    EXPECT_EQ(std::memcmp(file.data(), bytes.data(), bytes.size()), 0);
  }
}

TEST_F(MmapFileTest, AdviseOnClosedFileIsANoOp) {
  MmapFile file;
  EXPECT_TRUE(file.advise(MapAdvice::kSequential));
  EXPECT_EQ(file.resident_bytes(), 0U);
}

TEST_F(MmapFileTest, ResidentBytesIsBoundedAndGrowsWithTouches) {
  const std::size_t n = 64 * 4096;
  const std::string path = write_file("resident.bin", pattern(n));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error)) << error;
  EXPECT_LE(file.resident_bytes(), file.size());
  // Touch every page; afterwards the whole view must be resident (on the
  // fallback path it already was — the owned buffer is heap memory).
  std::size_t sink = 0;
  for (std::size_t i = 0; i < n; i += 512) sink += file.data()[i];
  EXPECT_GT(sink, 0U);
  EXPECT_EQ(file.resident_bytes(), file.size());
}

TEST_F(MmapFileTest, FallbackReportsBufferFullyResident) {
  const std::string path = write_file("fallback.bin", pattern(4096 + 17));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error, /*force_read=*/true)) << error;
  EXPECT_FALSE(file.is_mapped());
  EXPECT_EQ(file.resident_bytes(), file.size());
}

TEST_F(MmapFileTest, DontNeedIsNonDestructiveOnTheMappedPath) {
  const std::size_t n = 256 * 4096;
  const std::string path = write_file("dontneed.bin", pattern(n));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error)) << error;
  if (!file.is_mapped()) GTEST_SKIP() << "no mmap on this platform";
  std::size_t sink = 0;
  for (std::size_t i = 0; i < n; i += 4096) sink += file.data()[i];
  ASSERT_EQ(file.resident_bytes(), file.size());
  ASSERT_TRUE(file.advise(MapAdvice::kDontNeed));
  // mincore on a file-backed mapping reports page-cache residency, and
  // kDontNeed does not evict still-cached file pages (it only drops the
  // process's private copies) — so residency may legitimately stay at
  // size() here. What we can pin down: the call succeeds, the bound
  // holds, and the data re-reads intact afterwards.
  EXPECT_LE(file.resident_bytes(), file.size());
  const auto bytes = pattern(n);
  EXPECT_EQ(std::memcmp(file.data(), bytes.data(), n), 0);
  (void)sink;
}

TEST_F(MmapFileTest, ZeroLengthFileOpensEmpty) {
  const std::string path = write_file("empty.bin", {});
  for (const bool force_read : {false, true}) {
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error, force_read)) << error;
    EXPECT_EQ(file.size(), 0U);
    EXPECT_EQ(file.resident_bytes(), 0U);
    EXPECT_TRUE(file.advise(MapAdvice::kRandom));
  }
}

TEST_F(MmapFileTest, TailModeGrowsInPlaceAndPastItsReservation) {
  // open_tail + grow is how a follower tails a live WAL segment: growth
  // inside the reservation keeps data() where it was (no re-map), growth
  // past it re-maps, and both paths always show exactly the file's bytes.
  const auto bytes = pattern(3 << 20);
  for (const bool force_read : {false, true}) {
    const std::string path = write_file("tail.bin", {});
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open_tail(path, &error, force_read)) << error;
    EXPECT_EQ(file.size(), 0U);
    EXPECT_FALSE(file.grow(&error)) << "no growth yet";

    std::size_t have = 0;
    const auto append = [&](std::size_t n) {
      std::FILE* f = std::fopen(path.c_str(), "ab");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data() + have, 1, n, f), n);
      std::fclose(f);
      have += n;
    };
    append(100);
    ASSERT_TRUE(file.grow(&error)) << error;
    ASSERT_EQ(file.size(), have);
    const std::uint8_t* before = file.data();
    append(4096 * 3 + 17);
    ASSERT_TRUE(file.grow(&error)) << error;
    ASSERT_EQ(file.size(), have);
    if (!force_read && file.is_mapped()) {
      EXPECT_EQ(file.data(), before) << "growth inside the reservation re-mapped";
    }
    EXPECT_FALSE(file.grow(&error));
    append(bytes.size() - have);  // far past the 1 MiB minimum reservation
    ASSERT_TRUE(file.grow(&error)) << error;
    ASSERT_EQ(file.size(), bytes.size());
    EXPECT_EQ(std::memcmp(file.data(), bytes.data(), bytes.size()), 0);

    MmapFile moved = std::move(file);  // the held descriptor moves with it
    EXPECT_FALSE(file.grow(&error));
    EXPECT_FALSE(moved.grow(&error));
    EXPECT_EQ(std::memcmp(moved.data(), bytes.data(), bytes.size()), 0);
    // Released pages fault back in from the page cache, byte-identical.
    moved.release_below(bytes.size() / 2);
    moved.release_below(bytes.size() + 1);
    EXPECT_EQ(std::memcmp(moved.data(), bytes.data(), bytes.size()), 0);
    std::filesystem::remove(path);
  }
}

TEST_F(MmapFileTest, GrowIsANoOpOutsideTailMode) {
  const std::string path = write_file("plain.bin", pattern(64));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error)) << error;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(1, f);
  std::fclose(f);
  EXPECT_FALSE(file.grow(&error));
  EXPECT_EQ(file.size(), 64U);
}

}  // namespace
