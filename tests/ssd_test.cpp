#include <stdexcept>

#include <gtest/gtest.h>

#include "src/ftl/factory.hpp"
#include "src/ssd/ssd.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

SsdConfig small_ssd(std::uint32_t blocks = 64, const std::string& ftl = "page") {
  SsdConfig cfg;
  cfg.nand.num_blocks = blocks;
  cfg.nand.pages_per_block = 16;
  cfg.ftl_scheme = ftl;
  return cfg;
}

TEST(SsdTest, CapacityIsLogicalPagesTimesPageSize) {
  Ssd ssd(small_ssd());
  EXPECT_EQ(ssd.capacity_bytes(),
            static_cast<Bytes>(ssd.logical_pages()) *
                ssd.config().nand.page_bytes);
  EXPECT_LT(ssd.capacity_bytes(), ssd.config().nand.capacity_bytes());
}

TEST(SsdTest, SectorToPageMapping) {
  Ssd ssd(small_ssd());
  EXPECT_EQ(ssd.sectors_per_page(), 4u);  // 2 KiB page / 512 B sector
  // Reading 1 sector touches exactly 1 page.
  EXPECT_TRUE(ssd.write(0, 4).ok());
  const auto reads_before = ssd.ftl().stats().host_reads;
  EXPECT_TRUE(ssd.read(0, 1).ok());
  EXPECT_EQ(ssd.ftl().stats().host_reads, reads_before + 1);
  // Reading 5 sectors straddling a page boundary touches 2 pages.
  EXPECT_TRUE(ssd.read(2, 5).ok());
  EXPECT_EQ(ssd.ftl().stats().host_reads, reads_before + 3);
}

TEST(SsdTest, OutOfRangeThrows) {
  Ssd ssd(small_ssd());
  const Lba max_sector = ssd.capacity_bytes() / kSectorSize;
  EXPECT_THROW((void)ssd.read(max_sector, 1), std::out_of_range);
  EXPECT_THROW((void)ssd.write(max_sector - 1, 2), std::out_of_range);
}

TEST(SsdTest, WriteCostsMoreThanRead) {
  Ssd ssd(small_ssd());
  const Micros w = ssd.write(0, 64).latency;
  const Micros r = ssd.read(0, 64).latency;
  EXPECT_GT(w, r);
}

TEST(SsdTest, PageGranularHelpers) {
  Ssd ssd(small_ssd());
  const Micros w = ssd.write_pages(10, 4).latency;
  EXPECT_GT(w.value(), 4 * 100.0);  // at least 4 programs
  const Micros r = ssd.read_pages(10, 4).latency;
  EXPECT_GT(r.value(), 4 * 30.0);
  EXPECT_GT(ssd.trim_pages(10, 4).value(), 0.0);
}

TEST(SsdTest, TrimOnlyCoversWholePages) {
  Ssd ssd(small_ssd());
  EXPECT_TRUE(ssd.write(0, 8).ok());  // pages 0 and 1
  const auto trims_before = ssd.ftl().stats().host_trims;
  EXPECT_TRUE(ssd.trim(1, 4).ok());  // sectors 1..4: no whole page covered -> page 1 only? no:
  // pages fully inside [1,5) : page 0 is [0,4), page 1 is [4,8) -> none.
  EXPECT_EQ(ssd.ftl().stats().host_trims, trims_before);
  EXPECT_TRUE(ssd.trim(0, 8).ok());  // pages 0 and 1 fully covered
  EXPECT_EQ(ssd.ftl().stats().host_trims, trims_before + 2);
}

TEST(SsdTest, EraseCountSurfacesFromNand) {
  Ssd ssd(small_ssd(32));
  Rng rng(5);
  const Lpn n = ssd.logical_pages();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(ssd.write_pages(rng.next_below(n), 1).ok());
  }
  EXPECT_GT(ssd.block_erases(), 0u);
  EXPECT_EQ(ssd.block_erases(), ssd.nand().stats().block_erases);
}

TEST(SsdTest, MeanFlashAccessTracksFtl) {
  Ssd ssd(small_ssd());
  EXPECT_TRUE(ssd.write_pages(0, 10).ok());
  EXPECT_TRUE(ssd.read_pages(0, 10).ok());
  EXPECT_GT(ssd.mean_flash_access().value(), 0.0);
  EXPECT_DOUBLE_EQ(ssd.mean_flash_access().value(),
                   ssd.ftl().stats().mean_access().value());
}

TEST(SsdTest, DeviceStatsAccumulate) {
  Ssd ssd(small_ssd());
  EXPECT_TRUE(ssd.write(0, 8).ok());
  EXPECT_TRUE(ssd.read(0, 8).ok());
  EXPECT_EQ(ssd.stats().write_ops, 1u);
  EXPECT_EQ(ssd.stats().read_ops, 1u);
  EXPECT_EQ(ssd.stats().sectors_written, 8u);
}

TEST(SsdTest, WorksWithEveryFtlScheme) {
  for (const std::string& scheme : ftl_scheme_names()) {
    Ssd ssd(small_ssd(64, scheme));
    EXPECT_EQ(ssd.ftl().name(), scheme);
    EXPECT_TRUE(ssd.write(0, 64).ok());
    EXPECT_TRUE(ssd.read(0, 64).ok());
  }
}

TEST(SsdTest, CollectorCapturesHostOps) {
  Ssd ssd(small_ssd());
  ssd.collector().set_enabled(true);
  EXPECT_TRUE(ssd.write(8, 4).ok());
  EXPECT_TRUE(ssd.read(8, 4).ok());
  ASSERT_EQ(ssd.collector().records().size(), 2u);
  EXPECT_EQ(ssd.collector().records()[0].op, IoOp::kWrite);
  EXPECT_EQ(ssd.collector().records()[1].op, IoOp::kRead);
}

}  // namespace
}  // namespace ssdse
