// PageFtl wear-leveling tests. (The target keeps its historical name: it
// also held the tests of the BPLRU write-buffer decorator, since removed.)
#include <algorithm>

#include <gtest/gtest.h>

#include "src/ftl/page_ftl.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

NandConfig small_nand(std::uint32_t blocks = 96,
                      std::uint32_t pages_per_block = 8) {
  NandConfig cfg;
  cfg.num_blocks = blocks;
  cfg.pages_per_block = pages_per_block;
  return cfg;
}

// --- Wear leveling --------------------------------------------------------

std::uint32_t wear_spread(bool wl) {
  FtlConfig cfg;
  cfg.wear_leveling = wl;
  NandArray nand(small_nand(64, 8));
  PageFtl ftl(nand, cfg);
  Rng rng(5);
  const Lpn n = ftl.logical_pages();
  // Hot/cold: 90 % of writes hammer 10 % of the space — the classic
  // wear-skew workload.
  for (int i = 0; i < 60'000; ++i) {
    const Lpn p = rng.chance(0.9) ? rng.next_below(n / 10 + 1)
                                  : rng.next_below(n);
    EXPECT_TRUE(ftl.write(p).ok());
  }
  std::uint32_t min_wear = ~0u;
  for (Pbn b = 0; b < nand.config().num_blocks; ++b) {
    min_wear = std::min(min_wear, nand.erase_count(b));
  }
  return nand.max_erase_count() - min_wear;
}

TEST(WearLevelingTest, NarrowsEraseSpread) {
  EXPECT_LT(wear_spread(true), wear_spread(false));
}

TEST(WearLevelingTest, CorrectnessUnchanged) {
  FtlConfig cfg;
  cfg.wear_leveling = true;
  NandArray nand(small_nand(64, 8));
  PageFtl ftl(nand, cfg);
  Rng rng(6);
  const Lpn n = ftl.logical_pages();
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(ftl.write(rng.next_below(n)).ok());
  for (Lpn p = 0; p < n; ++p) EXPECT_TRUE(ftl.read(p).ok());
}

}  // namespace
}  // namespace ssdse
