#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/ssd_list_cache.hpp"

namespace ssdse {
namespace {

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.nand.num_blocks = 128;
  cfg.nand.pages_per_block = 16;  // 32 KiB cache blocks for the tests
  return cfg;
}

constexpr Bytes kBlk = 16 * 2 * KiB;  // one cache block = 32 KiB here

class SsdListCacheTest : public ::testing::Test {
 protected:
  SsdListCacheTest() : ssd_(small_ssd()), file_(ssd_, 0, 10),
                       cache_(file_, /*W=*/3) {}
  Ssd ssd_;
  SsdCacheFile file_;
  SsdListCache cache_;
};

TEST_F(SsdListCacheTest, InsertThenPrefixLookup) {
  const Micros wt = cache_.insert(TermId{1}, kBlk + 5, /*freq=*/3);
  EXPECT_GT(wt.value(), 0.0);
  EXPECT_TRUE(cache_.contains(TermId{1}));
  Micros t = micros(0);
  const SsdListEntry* e = cache_.lookup(TermId{1}, kBlk, t);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sc_blocks, 2u);  // kBlk+5 bytes -> 2 blocks
  EXPECT_EQ(e->freq, 4u);
  EXPECT_GT(t.value(), 0.0);
  // Beyond the cached prefix: miss.
  EXPECT_EQ(cache_.lookup(TermId{1}, 3 * kBlk, t), nullptr);
  EXPECT_EQ(cache_.lookup(TermId{404}, 1, t), nullptr);
}

TEST_F(SsdListCacheTest, HitMarksEntryAndBlocksReplaceable) {
  (void)cache_.insert(TermId{1}, 2 * kBlk, 1);
  Micros t = micros(0);
  cache_.lookup(TermId{1}, kBlk, t);
  EXPECT_EQ(file_.replaceable_count(), 2u);  // both blocks of the entry
}

TEST_F(SsdListCacheTest, ResurrectionAvoidsRewrite) {
  (void)cache_.insert(TermId{1}, 2 * kBlk, 1);
  Micros t = micros(0);
  cache_.lookup(TermId{1}, kBlk, t);  // replaceable now
  const auto writes_before = cache_.stats().blocks_written;
  const Micros wt = cache_.insert(TermId{1}, kBlk, /*freq=*/5);  // smaller prefix
  EXPECT_EQ(wt.value(), 0.0);
  EXPECT_EQ(cache_.stats().blocks_written, writes_before);
  EXPECT_EQ(cache_.stats().resurrections, 1u);
  EXPECT_EQ(file_.replaceable_count(), 0u);  // back to normal
}

TEST_F(SsdListCacheTest, GrowingPrefixForcesRewrite) {
  (void)cache_.insert(TermId{1}, kBlk, 1);
  const auto writes_before = cache_.stats().blocks_written;
  (void)cache_.insert(TermId{1}, 3 * kBlk, 1);  // longer prefix than cached
  EXPECT_GT(cache_.stats().blocks_written, writes_before);
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(TermId{1}, 3 * kBlk, t), nullptr);
}

TEST_F(SsdListCacheTest, ReplaceableEvictedFirstInWindow) {
  // Fill the 10-block region with 5 entries of 2 blocks.
  for (TermId term = TermId{1}; term <= TermId{5}; ++term) (void)cache_.insert(term, 2 * kBlk, 1);
  Micros t = micros(0);
  // Make term 2 (inside the W=3 LRU window: entries 1,2,3) replaceable.
  cache_.lookup(TermId{2}, kBlk, t);
  (void)cache_.insert(TermId{6}, 2 * kBlk, 1);
  EXPECT_FALSE(cache_.contains(TermId{2}));  // replaceable victim chosen first
  EXPECT_TRUE(cache_.contains(TermId{1}));   // plain LRU survivor
}

TEST_F(SsdListCacheTest, ExactSizeMatchPreferredOverAssembly) {
  // Entries: sizes 1,3,1,1,1 blocks -> region 10 blocks, 3 free.
  (void)cache_.insert(TermId{1}, kBlk, 1);
  (void)cache_.insert(TermId{2}, 3 * kBlk, 1);
  (void)cache_.insert(TermId{3}, kBlk, 1);
  (void)cache_.insert(TermId{4}, kBlk, 1);
  (void)cache_.insert(TermId{5}, kBlk, 1);
  EXPECT_EQ(file_.free_count(), 3u);
  // Need 4 blocks: 3 free + 1 more. Window (LRU end) holds 1,2,3; the
  // shortfall is exactly 1 block, and term 1 matches it exactly.
  (void)cache_.insert(TermId{6}, 4 * kBlk, 1);
  EXPECT_FALSE(cache_.contains(TermId{1}));
  EXPECT_TRUE(cache_.contains(TermId{2}));  // 3-block entry untouched
  EXPECT_TRUE(cache_.contains(TermId{6}));
}

TEST_F(SsdListCacheTest, AssemblySpansSeveralWindowEntries) {
  for (TermId term = TermId{1}; term <= TermId{5}; ++term) (void)cache_.insert(term, 2 * kBlk, 1);
  // Need 4 blocks, no free, no exact-size (needing 4, entries are 2):
  // two LRU-window entries are assembled.
  (void)cache_.insert(TermId{6}, 4 * kBlk, 1);
  EXPECT_FALSE(cache_.contains(TermId{1}));
  EXPECT_FALSE(cache_.contains(TermId{2}));
  EXPECT_TRUE(cache_.contains(TermId{3}));
  EXPECT_TRUE(cache_.contains(TermId{6}));
}

TEST_F(SsdListCacheTest, WorstCaseWholeListScan) {
  // One huge entry beyond the window plus small window entries; a write
  // bigger than the whole window must reach into the working region.
  (void)cache_.insert(TermId{1}, kBlk, 1);      // LRU end after later inserts
  (void)cache_.insert(TermId{2}, kBlk, 1);
  (void)cache_.insert(TermId{3}, kBlk, 1);
  (void)cache_.insert(TermId{4}, kBlk, 1);
  (void)cache_.insert(TermId{5}, 6 * kBlk, 1);  // MRU, outside W=3 window
  // Need 8 blocks; window holds 3 small entries + 0 free -> pass 4.
  (void)cache_.insert(TermId{6}, 8 * kBlk, 1);
  EXPECT_TRUE(cache_.contains(TermId{6}));
  EXPECT_FALSE(cache_.contains(TermId{5}));  // working-region entry sacrificed
}

void expect_same_lists(const std::vector<ListEntryImage>& a,
                       const std::vector<ListEntryImage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].term, b[i].term) << "position " << i;
    EXPECT_EQ(a[i].blocks, b[i].blocks) << "position " << i;
    EXPECT_EQ(a[i].cached_bytes, b[i].cached_bytes) << "position " << i;
    EXPECT_EQ(a[i].freq, b[i].freq) << "position " << i;
    EXPECT_EQ(a[i].sc_blocks, b[i].sc_blocks) << "position " << i;
    EXPECT_EQ(a[i].born, b[i].born) << "position " << i;
    EXPECT_EQ(a[i].replaceable, b[i].replaceable) << "position " << i;
  }
}

TEST_F(SsdListCacheTest, SnapshotPreservesRecencyOrder) {
  // Fill the 10-block region with 5 two-block entries, then promote 2
  // and 3 through the cancellation path (insert of a covered prefix
  // touches the entry without rewriting it). Recency, MRU first:
  // 3 2 5 4 1.
  for (TermId term = TermId{1}; term <= TermId{5}; ++term) {
    (void)cache_.insert(term, 2 * kBlk, /*freq=*/term.raw(),
                        /*born=*/10 + term.raw());
  }
  (void)cache_.insert(TermId{2}, 2 * kBlk, 1);
  (void)cache_.insert(TermId{3}, 2 * kBlk, 1);
  std::vector<ListEntryImage> image, static_image;
  cache_.export_image(image, static_image);
  std::vector<TermId> order;
  for (const ListEntryImage& e : image) order.push_back(e.term);
  EXPECT_EQ(order, (std::vector<TermId>{TermId{3}, TermId{2}, TermId{5},
                                         TermId{4}, TermId{1}}));
  EXPECT_TRUE(static_image.empty());

  // A cache restored from that image re-exports it unchanged...
  Ssd ssd2(small_ssd());
  SsdCacheFile file2(ssd2, 0, 10);
  SsdListCache restored(file2, /*W=*/3);
  (void)restored.restore_image(image, static_image);
  std::vector<ListEntryImage> again, static_again;
  restored.export_image(again, static_again);
  expect_same_lists(image, again);

  // ...and picks the same next victim: the exact-size pass takes the
  // LRU end (term 1), which a reversed order would have kept.
  (void)cache_.insert(TermId{6}, 2 * kBlk, 1);
  (void)restored.insert(TermId{6}, 2 * kBlk, 1);
  EXPECT_FALSE(cache_.contains(TermId{1}));
  EXPECT_FALSE(restored.contains(TermId{1}));
  EXPECT_TRUE(restored.contains(TermId{3}));
  std::vector<ListEntryImage> after, after_restored, unused;
  cache_.export_image(after, unused);
  restored.export_image(after_restored, unused);
  expect_same_lists(after, after_restored);
}

TEST_F(SsdListCacheTest, TooLargeRejected) {
  const Micros t = cache_.insert(TermId{1}, 11 * kBlk, 1);
  EXPECT_EQ(t, Micros{});
  EXPECT_FALSE(cache_.contains(TermId{1}));
  EXPECT_EQ(cache_.stats().rejected_too_large, 1u);
}

TEST_F(SsdListCacheTest, ExcessVictimBlocksTrimmed) {
  // Evicting a 3-block victim for a 1-block shortfall trims the excess.
  (void)cache_.insert(TermId{1}, 3 * kBlk, 1);
  for (TermId term = TermId{2}; term <= TermId{4}; ++term) (void)cache_.insert(term, 2 * kBlk, 1);
  EXPECT_EQ(file_.free_count(), 1u);
  (void)cache_.insert(TermId{5}, 2 * kBlk, 1);  // needs 1 extra block; victim is term 1
  EXPECT_FALSE(cache_.contains(TermId{1}));
  EXPECT_TRUE(cache_.contains(TermId{5}));
  // Two of the victim's three blocks were not needed: back to free.
  EXPECT_GE(file_.free_count(), 1u);
}

TEST_F(SsdListCacheTest, StaticPreloadPinnedAndUnevictable) {
  std::vector<std::tuple<TermId, Bytes, std::uint64_t>> pinned = {
      {TermId{100}, 2 * kBlk, 50},
      {TermId{101}, 2 * kBlk, 40},
  };
  (void)cache_.preload_static(pinned);
  EXPECT_TRUE(cache_.is_static(TermId{100}));
  Micros t = micros(0);
  const SsdListEntry* e = cache_.lookup(TermId{100}, kBlk, t);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->freq, 51u);
  // Dynamic churn cannot evict static entries.
  for (TermId term = TermId{1}; term <= TermId{30}; ++term) (void)cache_.insert(term, 2 * kBlk, 1);
  EXPECT_TRUE(cache_.contains(TermId{100}));
  EXPECT_TRUE(cache_.contains(TermId{101}));
  // Inserting a static term is a no-op (already pinned).
  EXPECT_EQ(cache_.insert(TermId{100}, kBlk, 1), Micros{});
}

TEST_F(SsdListCacheTest, StatsAccounting) {
  (void)cache_.insert(TermId{1}, 2 * kBlk, 1);
  Micros t = micros(0);
  cache_.lookup(TermId{1}, 1, t);
  cache_.lookup(TermId{2}, 1, t);
  EXPECT_EQ(cache_.stats().inserts, 1u);
  EXPECT_EQ(cache_.stats().lookups, 2u);
  EXPECT_EQ(cache_.stats().hits, 1u);
  EXPECT_EQ(cache_.stats().blocks_written, 2u);
}

}  // namespace
}  // namespace ssdse
