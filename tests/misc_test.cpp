// Cross-cutting edge-case tests: metrics coverage accounting, SSD wear
// fractions, container corners.
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hybrid/metrics.hpp"
#include "src/ssd/ssd.hpp"
#include "src/util/bitmap.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

// --- RunMetrics coverage -------------------------------------------------

TEST(CoverageTest, FullCoverageIsOne) {
  RunMetrics m;
  m.record_coverage(4, 4);
  m.record_coverage(3, 3);
  EXPECT_DOUBLE_EQ(m.request_coverage(), 1.0);
}

TEST(CoverageTest, PartialCoverage) {
  RunMetrics m;
  m.record_coverage(1, 4);  // one of four requests served
  m.record_coverage(3, 4);
  EXPECT_DOUBLE_EQ(m.request_coverage(), 0.5);
}

TEST(CoverageTest, EmptyIsZero) {
  RunMetrics m;
  EXPECT_EQ(m.request_coverage(), 0.0);
}

TEST(CoverageTest, CacheServedFractionCountsS1toS5) {
  RunMetrics m;
  m.record(Situation::kS1_ResultMemory, micros(1));
  m.record(Situation::kS5_ListsSsd, micros(1));
  m.record(Situation::kS6_ListsMemoryHdd, micros(1));
  m.record(Situation::kS9_ListsHdd, micros(1));
  EXPECT_DOUBLE_EQ(m.cache_served_fraction(), 0.5);
}

// --- Ssd wear --------------------------------------------------------------

TEST(SsdWearTest, WearFractionsTrackErases) {
  SsdConfig cfg;
  cfg.nand.num_blocks = 32;
  cfg.nand.pages_per_block = 8;
  Ssd ssd(cfg);
  EXPECT_EQ(ssd.wear_fraction(), 0.0);
  EXPECT_EQ(ssd.worst_wear_fraction(), 0.0);
  Rng rng(4);
  for (int i = 0; i < 4000; ++i) {
    EXPECT_TRUE(ssd.write_pages(rng.next_below(ssd.logical_pages()), 1).ok());
  }
  ASSERT_GT(ssd.block_erases(), 0u);
  EXPECT_GT(ssd.wear_fraction(), 0.0);
  EXPECT_GE(ssd.worst_wear_fraction(), ssd.wear_fraction());
  // With the default 100k-cycle rating, wear is proportional to erases.
  EXPECT_NEAR(ssd.wear_fraction(100'000) * 10,
              ssd.wear_fraction(10'000), 1e-12);
}

// --- FlatLruMap handle erase ----------------------------------------------

using IntLru = FlatLruMap<int, int>;

/// (key, handle) pairs in LRU -> MRU order.
std::vector<std::pair<int, std::uint32_t>> lru_walk(const IntLru& m) {
  std::vector<std::pair<int, std::uint32_t>> out;
  for (auto h = m.lru_handle(); h != IntLru::npos; h = m.more_recent(h)) {
    out.emplace_back(m.key_at(h), h);
  }
  return out;
}

TEST(FlatLruMapEdgeTest, EraseHandleRelocationKeepsOrderAndIndex) {
  // 11 keys in the 16-slot table (just under the 0.7 load cap) leave
  // probe chains, so backward-shift deletion of some entry must move a
  // neighbour into the hole, patching its recency links. Try every
  // middle entry on a copy; each must leave order and index intact, and
  // at least one must actually relocate a neighbour.
  IntLru m;
  for (int i = 0; i < 11; ++i) m.insert(i, i * 10);
  const auto before = lru_walk(m);
  ASSERT_EQ(before.size(), 11u);
  bool relocated = false;
  for (std::size_t pos = 1; pos + 1 < before.size(); ++pos) {
    IntLru c = m;
    const int victim = before[pos].first;
    EXPECT_EQ(c.erase_handle(before[pos].second), victim * 10);
    EXPECT_EQ(c.size(), 10u);
    EXPECT_EQ(c.peek(victim), nullptr);
    auto expected = before;
    expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(pos));
    const auto after = lru_walk(c);
    ASSERT_EQ(after.size(), expected.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].first, expected[i].first) << "victim " << victim;
      if (after[i].second != expected[i].second) relocated = true;
      const int* v = c.peek(after[i].first);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, after[i].first * 10);
    }
    // The MRU-first walk is the exact reverse.
    std::vector<int> mru_first;
    for (auto h = c.mru_handle(); h != IntLru::npos; h = c.less_recent(h)) {
      mru_first.push_back(c.key_at(h));
    }
    ASSERT_EQ(mru_first.size(), after.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(mru_first[i], after[after.size() - 1 - i].first);
    }
  }
  EXPECT_TRUE(relocated) << "no erase exercised a probe-chain relocation";
}

TEST(FlatLruMapEdgeTest, ClearEmptiesEverything) {
  IntLru m;
  m.insert(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.touch(1), nullptr);
  EXPECT_EQ(m.lru_handle(), IntLru::npos);
}

// --- Bitmap resize -----------------------------------------------------------

TEST(BitmapEdgeTest, ResizePreservesExistingBits) {
  // Tombstone maps grow one doc at a time; growth must not drop bits
  // set earlier (and shrink must recount what survives the cut).
  Bitmap b(10);
  b.set(3);
  b.resize(20, true);
  EXPECT_EQ(b.size(), 20u);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(4));  // old bits keep their old value...
  EXPECT_TRUE(b.test(10));  // ...new bits take `value`
  EXPECT_EQ(b.popcount(), 11u);
  b.resize(7, false);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_TRUE(b.test(3));
  EXPECT_EQ(b.popcount(), 1u);
}

TEST(BitmapEdgeTest, ResizeAcrossWordBoundaries) {
  Bitmap b(60);
  b.set(59);
  b.resize(130, true);  // partial word tail + two fresh words
  EXPECT_TRUE(b.test(59));
  EXPECT_FALSE(b.test(0));
  for (std::size_t i = 60; i < 130; ++i) EXPECT_TRUE(b.test(i));
  EXPECT_EQ(b.popcount(), 71u);
  b.resize(64);  // shrink to an exact word boundary
  EXPECT_EQ(b.popcount(), 5u);  // 59..63 survive
  EXPECT_EQ(b.first_clear(), 0u);
}

TEST(BitmapEdgeTest, NextSetWalksSetBitsAcrossWords) {
  Bitmap b(130);
  for (const std::size_t i : {3u, 63u, 64u, 129u}) b.set(i);
  std::vector<std::size_t> seen;
  for (std::size_t i = b.next_set(0); i < b.size(); i = b.next_set(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 63, 64, 129}));
  EXPECT_EQ(b.next_set(130), 130u);
  EXPECT_EQ(Bitmap(70).next_set(0), 70u);
}

TEST(BitmapEdgeTest, ExactWordBoundary) {
  Bitmap b(64, true);
  EXPECT_TRUE(b.all());
  EXPECT_EQ(b.first_clear(), 64u);
  b.clear(63);
  EXPECT_EQ(b.first_clear(), 63u);
}

}  // namespace
}  // namespace ssdse
