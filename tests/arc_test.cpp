// ARC cache tests: the FAST'03 algorithm's invariants and its behaviour
// against LRU on recency- vs frequency-favouring streams.
#include <gtest/gtest.h>

#include "src/cache/arc_cache.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"
#include "src/util/zipf.hpp"

namespace ssdse {
namespace {

/// Plain LRU of the same capacity, for head-to-head comparisons.
class LruRef {
 public:
  explicit LruRef(std::size_t capacity) : capacity_(capacity) {}
  bool access(std::uint64_t key) {
    if (map_.touch(key) != nullptr) {
      ++hits_;
      return true;
    }
    map_.insert(key, true);
    if (map_.size() > capacity_) map_.pop_lru();
    ++misses_;
    return false;
  }
  double hit_ratio() const {
    return static_cast<double>(hits_) / static_cast<double>(hits_ + misses_);
  }

 private:
  std::size_t capacity_;
  FlatLruMap<std::uint64_t, bool> map_;
  std::uint64_t hits_ = 0, misses_ = 0;
};

TEST(ArcTest, MissThenHit) {
  ArcCache<int> arc(4);
  EXPECT_FALSE(arc.access(1));
  EXPECT_TRUE(arc.access(1));
  EXPECT_TRUE(arc.contains(1));
  EXPECT_EQ(arc.stats().hits, 1u);
  EXPECT_EQ(arc.stats().misses, 1u);
}

TEST(ArcTest, SecondAccessPromotesToFrequencyList) {
  ArcCache<int> arc(4);
  arc.access(1);
  EXPECT_EQ(arc.recency_size(), 1u);
  arc.access(1);
  EXPECT_EQ(arc.recency_size(), 0u);
  EXPECT_EQ(arc.frequency_size(), 1u);
}

TEST(ArcTest, ResidentSizeNeverExceedsCapacity) {
  ArcCache<std::uint64_t> arc(16);
  Rng rng(1);
  for (int i = 0; i < 20'000; ++i) {
    arc.access(rng.next_below(200));
    ASSERT_LE(arc.size(), 16u);
    ASSERT_LE(arc.p(), 16u);
  }
}

TEST(ArcTest, ScanResistance) {
  // A hot working set + a one-shot scan: LRU flushes the hot set, ARC's
  // frequency list protects it.
  const std::size_t cap = 32;
  ArcCache<std::uint64_t> arc(cap);
  LruRef lru(cap);
  auto drive = [&](auto& cache) {
    Rng rng(2);
    std::uint64_t hot_hits = 0, hot_refs = 0;
    std::uint64_t scan_key = 1'000'000;
    for (int round = 0; round < 400; ++round) {
      for (int i = 0; i < 16; ++i) {  // hot set of 16
        ++hot_refs;
        hot_hits += cache.access(rng.next_below(16));
      }
      for (int i = 0; i < 24; ++i) {  // cold scan, never reused
        cache.access(scan_key++);
      }
    }
    return static_cast<double>(hot_hits) / static_cast<double>(hot_refs);
  };
  const double arc_hot = drive(arc);
  const double lru_hot = drive(lru);
  EXPECT_GT(arc_hot, lru_hot + 0.2);
}

TEST(ArcTest, GhostHitsAdaptP) {
  ArcCache<std::uint64_t> arc(8);
  Rng rng(3);
  // Recency-heavy stream: references drift forward, revisiting keys
  // shortly after eviction — B1 ghost hits must occur and p must move.
  std::uint64_t base = 0;
  for (int i = 0; i < 4'000; ++i) {
    arc.access(base + rng.next_below(12));
    if (i % 8 == 0) ++base;
  }
  EXPECT_GT(arc.stats().ghost_b1_hits + arc.stats().ghost_b2_hits, 0u);
}

TEST(ArcTest, CompetitiveWithLruOnZipf) {
  const std::size_t cap = 64;
  ArcCache<std::uint64_t> arc(cap);
  LruRef lru(cap);
  ZipfSampler zipf(10'000, 0.9);
  Rng r1(4), r2(4);
  for (int i = 0; i < 40'000; ++i) arc.access(zipf.sample(r1));
  for (int i = 0; i < 40'000; ++i) lru.access(zipf.sample(r2));
  // ARC must be at least in LRU's neighbourhood on plain Zipf...
  EXPECT_GT(arc.stats().hit_ratio(), lru.hit_ratio() * 0.9);
}

TEST(ArcTest, CapacityOneDegenerate) {
  ArcCache<int> arc(1);
  EXPECT_FALSE(arc.access(1));
  EXPECT_TRUE(arc.access(1));
  EXPECT_FALSE(arc.access(2));
  EXPECT_LE(arc.size(), 1u);
}

}  // namespace
}  // namespace ssdse
