#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/ssd_result_cache.hpp"

namespace ssdse {
namespace {

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.nand.num_blocks = 128;
  cfg.nand.pages_per_block = 64;  // real 128 KiB blocks: 6 slots per RB
  return cfg;
}

CachedResult cached(QueryId qid, std::uint64_t freq = 1) {
  CachedResult c;
  c.entry.query = qid;
  c.entry.docs = {{DocId{static_cast<std::uint32_t>(qid.raw())}, 1.0f}};
  c.freq = freq;
  return c;
}

std::vector<CachedResult> group(QueryId first, std::uint32_t n) {
  std::vector<CachedResult> g;
  for (QueryId q = first; q < first + n; ++q) g.push_back(cached(q));
  return g;
}

class SsdResultCacheTest : public ::testing::Test {
 protected:
  SsdResultCacheTest() : ssd_(small_ssd()), file_(ssd_, 0, 8),
                         cache_(file_, /*W=*/2) {}
  Ssd ssd_;
  SsdCacheFile file_;
  SsdResultCache cache_;
};

TEST_F(SsdResultCacheTest, SixSlotsPerRb) {
  EXPECT_EQ(cache_.results_per_rb(), 6u);
}

TEST_F(SsdResultCacheTest, InsertThenLookup) {
  auto g = group(QueryId{10}, 6);
  const Micros t = cache_.insert_rb(g);
  EXPECT_GT(t.value(), 0.0);
  EXPECT_EQ(cache_.entry_count(), 6u);
  std::uint64_t freq = 0;
  Micros rt = micros(0);
  const ResultEntry* e = cache_.lookup(QueryId{12}, freq, rt);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->query.raw(), 12u);
  EXPECT_EQ(freq, 2u);  // admission freq 1 + this hit
  EXPECT_GT(rt.value(), 0.0);
  EXPECT_EQ(cache_.lookup(QueryId{999}, freq, rt), nullptr);
}

TEST_F(SsdResultCacheTest, HitMarksBlockReplaceable) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  std::uint64_t freq;
  Micros t = micros(0);
  cache_.lookup(QueryId{3}, freq, t);
  EXPECT_EQ(file_.replaceable_count(), 1u);
  // Second hit on the same RB does not double count.
  cache_.lookup(QueryId{4}, freq, t);
  EXPECT_EQ(file_.replaceable_count(), 1u);
}

TEST_F(SsdResultCacheTest, ResurrectCancelsRewrite) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  std::uint64_t freq;
  Micros t = micros(0);
  cache_.lookup(QueryId{2}, freq, t);  // slot now memory-resident
  EXPECT_TRUE(cache_.resurrect(QueryId{2}));
  EXPECT_EQ(file_.replaceable_count(), 0u);  // block normal again
  // A slot that was never read back cannot be resurrected.
  EXPECT_FALSE(cache_.resurrect(QueryId{3}));
  EXPECT_FALSE(cache_.resurrect(QueryId{999}));
  EXPECT_EQ(cache_.stats().resurrections, 1u);
}

TEST_F(SsdResultCacheTest, VictimIsMaxIrenInWindow) {
  // Fill all 8 RBs.
  for (QueryId base{}; base < QueryId{48}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  auto g2 = group(QueryId{100}, 6);
  (void)cache_.insert_rb(g2);  // 8 blocks total in the region: one must go
  // Read back 3 entries of the second-oldest RB (queries 6..11) to give
  // it the largest IREN.
  std::uint64_t freq;
  Micros t = micros(0);
  // (Re-fill state: insert_rb above already evicted one RB. Rebuild a
  // clean scenario instead.)
  SsdCacheFile file2(ssd_, 8 * 64, 4);
  SsdResultCache cache2(file2, /*W=*/2);
  for (QueryId base{}; base < QueryId{24}; base = base + 6) {
    auto g3 = group(base, 6);
    (void)cache2.insert_rb(g3);
  }
  // LRU order of RBs (old->new): [0..5], [6..11], [12..17], [18..23].
  // Window W=2 covers the two oldest. Give the second-oldest more IREN.
  cache2.lookup(QueryId{6}, freq, t);
  cache2.lookup(QueryId{7}, freq, t);
  // Insert a new RB: victim must be the RB holding 6..11.
  auto g4 = group(QueryId{200}, 6);
  (void)cache2.insert_rb(g4);
  const ResultEntry* survivor = cache2.lookup(QueryId{0}, freq, t);
  EXPECT_NE(survivor, nullptr);  // oldest RB survived (lower IREN)
  EXPECT_EQ(cache2.lookup(QueryId{8}, freq, t), nullptr);  // dropped with its RB
  EXPECT_GT(cache2.stats().entries_dropped_by_overwrite, 0u);

  // Window edge: an RB just outside W with a higher IREN must survive.
  SsdCacheFile file3(ssd_, 12 * 64, 4);
  SsdResultCache cache3(file3, /*W=*/2);
  for (QueryId base{}; base < QueryId{24}; base = base + 6) {
    auto g5 = group(base, 6);
    (void)cache3.insert_rb(g5);
  }
  cache3.lookup(QueryId{6}, freq, t);   // second-oldest (in W): IREN 1
  cache3.lookup(QueryId{12}, freq, t);  // third-oldest (outside W): IREN 3
  cache3.lookup(QueryId{13}, freq, t);
  cache3.lookup(QueryId{14}, freq, t);
  auto g6 = group(QueryId{300}, 6);
  (void)cache3.insert_rb(g6);
  EXPECT_FALSE(cache3.contains(QueryId{6}));  // max IREN inside W
  EXPECT_TRUE(cache3.contains(QueryId{15}));  // higher IREN, outside W
  EXPECT_TRUE(cache3.contains(QueryId{0}));

  // IREN tie inside W: the RB nearest the LRU end goes.
  SsdCacheFile file4(ssd_, 16 * 64, 4);
  SsdResultCache cache4(file4, /*W=*/2);
  for (QueryId base{}; base < QueryId{24}; base = base + 6) {
    auto g7 = group(base, 6);
    (void)cache4.insert_rb(g7);
  }
  cache4.lookup(QueryId{0}, freq, t);  // oldest: IREN 1
  cache4.lookup(QueryId{6}, freq, t);  // second-oldest: IREN 1
  auto g8 = group(QueryId{400}, 6);
  (void)cache4.insert_rb(g8);
  EXPECT_FALSE(cache4.contains(QueryId{3}));
  EXPECT_TRUE(cache4.contains(QueryId{9}));
}

TEST_F(SsdResultCacheTest, RewriteInvalidatesOldSlot) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  // Re-insert query 0 in a later RB; old slot must be invalidated, and
  // the lookup must find the new copy.
  auto g2 = group(QueryId{0}, 1);
  (void)cache_.insert_rb(g2);
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{0}, freq, t), nullptr);
  EXPECT_EQ(cache_.entry_count(), 6u);  // 5 from first RB + 1 rewritten
}

TEST_F(SsdResultCacheTest, PartialGroupsSupported) {
  auto g = group(QueryId{0}, 3);
  (void)cache_.insert_rb(g);
  EXPECT_EQ(cache_.entry_count(), 3u);
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{1}, freq, t), nullptr);
}

TEST_F(SsdResultCacheTest, StaticPreloadPinnedAndHit) {
  std::vector<CachedResult> hot;
  for (QueryId q = QueryId{500}; q < QueryId{512}; ++q) hot.push_back(cached(q, 10));
  (void)cache_.preload_static(hot);
  EXPECT_TRUE(cache_.is_static(QueryId{505}));
  EXPECT_FALSE(cache_.is_static(QueryId{5}));
  std::uint64_t freq;
  Micros t = micros(0);
  const ResultEntry* e = cache_.lookup(QueryId{505}, freq, t);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(freq, 11u);
  // Static blocks never become replaceable on hits.
  EXPECT_EQ(file_.replaceable_count(), 0u);
}

TEST_F(SsdResultCacheTest, StaticSurvivesDynamicChurn) {
  std::vector<CachedResult> hot;
  for (QueryId q = QueryId{500}; q < QueryId{506}; ++q) hot.push_back(cached(q, 10));
  (void)cache_.preload_static(hot);
  // Churn far more dynamic RBs than the region holds.
  for (QueryId base{}; base < QueryId{600}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{503}, freq, t), nullptr);
}

void expect_same_rbs(const std::vector<RbImage>& a,
                     const std::vector<RbImage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cb, b[i].cb) << "position " << i;
    ASSERT_EQ(a[i].slots.size(), b[i].slots.size()) << "position " << i;
    for (std::size_t s = 0; s < a[i].slots.size(); ++s) {
      const RbSlotImage& x = a[i].slots[s];
      const RbSlotImage& y = b[i].slots[s];
      EXPECT_EQ(x.qid, y.qid) << "position " << i << " slot " << s;
      EXPECT_EQ(x.freq, y.freq) << "position " << i << " slot " << s;
      EXPECT_EQ(x.born, y.born) << "position " << i << " slot " << s;
      EXPECT_EQ(x.state, y.state) << "position " << i << " slot " << s;
      EXPECT_EQ(x.docs, y.docs) << "position " << i << " slot " << s;
    }
  }
}

TEST_F(SsdResultCacheTest, SnapshotPreservesRecencyOrder) {
  // Fill the 8 RBs, then one more: the LRU RB (queries 0..5) is
  // overwritten and its block comes back as the MRU. An invalidated
  // slot outside the window gives one RB a durable IREN.
  for (QueryId base{}; base < QueryId{48}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  auto g2 = group(QueryId{100}, 6);
  (void)cache_.insert_rb(g2);
  EXPECT_TRUE(cache_.invalidate(QueryId{31}));
  std::vector<RbImage> image, static_image;
  cache_.export_image(image, static_image);
  std::vector<QueryId> order;
  for (const RbImage& rb : image) order.push_back(rb.slots.front().qid);
  EXPECT_EQ(order, (std::vector<QueryId>{QueryId{100}, QueryId{42},
                                          QueryId{36}, QueryId{30},
                                          QueryId{24}, QueryId{18},
                                          QueryId{12}, QueryId{6}}));
  EXPECT_TRUE(static_image.empty());

  // A cache restored from that image re-exports it unchanged...
  Ssd ssd2(small_ssd());
  SsdCacheFile file2(ssd2, 0, 8);
  SsdResultCache restored(file2, /*W=*/2);
  (void)restored.restore_image(image, static_image);
  std::vector<RbImage> again, static_again;
  restored.export_image(again, static_again);
  expect_same_rbs(image, again);

  // ...and picks the same next victim: the IREN tie in W goes to the
  // LRU end (queries 6..11), which a reversed order would have kept.
  auto g3 = group(QueryId{200}, 6);
  (void)cache_.insert_rb(g3);
  auto g4 = group(QueryId{200}, 6);
  (void)restored.insert_rb(g4);
  EXPECT_FALSE(cache_.contains(QueryId{6}));
  EXPECT_FALSE(restored.contains(QueryId{6}));
  EXPECT_TRUE(restored.contains(QueryId{100}));
  std::vector<RbImage> after, after_restored, unused;
  cache_.export_image(after, unused);
  restored.export_image(after_restored, unused);
  expect_same_rbs(after, after_restored);
}

TEST_F(SsdResultCacheTest, StatsCountWrites) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  EXPECT_EQ(cache_.stats().rb_writes, 1u);
  EXPECT_EQ(cache_.stats().entries_written, 6u);
}

}  // namespace
}  // namespace ssdse
