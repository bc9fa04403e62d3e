#include <bit>
#include <stdexcept>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/ftl/page_ftl.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

NandConfig small_nand(std::uint32_t blocks = 64,
                      std::uint32_t pages_per_block = 16) {
  NandConfig cfg;
  cfg.num_blocks = blocks;
  cfg.pages_per_block = pages_per_block;
  return cfg;
}

TEST(PageFtlTest, LogicalSpaceSmallerThanPhysical) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  EXPECT_LT(ftl.logical_pages(), nand.config().total_pages());
  EXPECT_GT(ftl.logical_pages(), 0u);
}

TEST(PageFtlTest, WriteThenReadVerifiesInternally) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  // The FTL self-checks tags on read; no throw == data is intact.
  EXPECT_TRUE(ftl.write(5).ok());
  EXPECT_TRUE(ftl.read(5).ok());
  EXPECT_EQ(ftl.stats().host_reads, 1u);
  EXPECT_EQ(ftl.stats().host_writes, 1u);
}

TEST(PageFtlTest, UnwrittenReadIsCheap) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  const Micros t = ftl.read(3).latency;
  EXPECT_LT(t, nand.config().page_read);  // controller overhead only
}

TEST(PageFtlTest, OverwriteInvalidatesOldCopy) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  EXPECT_TRUE(ftl.write(1).ok());
  const auto programs_before = nand.stats().page_programs;
  EXPECT_TRUE(ftl.write(1).ok());  // out-of-place rewrite
  EXPECT_EQ(nand.stats().page_programs, programs_before + 1);
  EXPECT_TRUE(ftl.read(1).ok());  // newest version readable
}

TEST(PageFtlTest, OutOfRangeThrows) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  EXPECT_THROW((void)ftl.read(ftl.logical_pages()), std::out_of_range);
  EXPECT_THROW((void)ftl.write(ftl.logical_pages()), std::out_of_range);
  EXPECT_THROW((void)ftl.trim(ftl.logical_pages()), std::out_of_range);
}

TEST(PageFtlTest, SequentialOverwriteTriggersCheapGc) {
  NandArray nand(small_nand(32, 8));
  PageFtl ftl(nand);
  const Lpn n = ftl.logical_pages();
  // Three full sequential passes: whole blocks become invalid, so GC
  // should erase without copying.
  for (int pass = 0; pass < 3; ++pass) {
    for (Lpn p = 0; p < n; ++p) EXPECT_TRUE(ftl.write(p).ok());
  }
  EXPECT_GT(nand.stats().block_erases, 0u);
  EXPECT_EQ(ftl.stats().gc_page_copies, 0u);
  const double wa = ftl.stats().write_amplification(nand.stats());
  EXPECT_NEAR(wa, 1.0, 1e-9);
}

TEST(PageFtlTest, RandomOverwriteCausesWriteAmplification) {
  NandArray nand(small_nand(64, 16));
  PageFtl ftl(nand);
  Rng rng(9);
  const Lpn n = ftl.logical_pages();
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(ftl.write(rng.next_below(n)).ok());
  }
  EXPECT_GT(ftl.stats().gc_page_copies, 0u);
  EXPECT_GT(ftl.stats().write_amplification(nand.stats()), 1.01);
}

TEST(PageFtlTest, AllDataSurvivesGcChurn) {
  NandArray nand(small_nand(48, 8));
  PageFtl ftl(nand);
  Rng rng(10);
  const Lpn n = ftl.logical_pages();
  std::unordered_set<Lpn> written;
  for (int i = 0; i < 10000; ++i) {
    const Lpn p = rng.next_below(n);
    EXPECT_TRUE(ftl.write(p).ok());
    written.insert(p);
  }
  // Every written page must read back its newest version (self-checked).
  for (Lpn p : written) EXPECT_TRUE(ftl.read(p).ok());
}

TEST(PageFtlTest, TrimFreesAndInvalidates) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  EXPECT_TRUE(ftl.write(7).ok());
  (void)ftl.trim(7);
  EXPECT_EQ(ftl.stats().host_trims, 1u);
  // Post-trim read is an unmapped read (cheap, no tag check).
  const Micros t = ftl.read(7).latency;
  EXPECT_LT(t, nand.config().page_read);
}

TEST(PageFtlTest, TrimmedSpaceReducesGcWork) {
  // Workload A: overwrite everything twice. Workload B: trim before the
  // second pass — GC should copy nothing.
  auto run = [](bool trim_first) {
    NandArray nand(small_nand(32, 8));
    PageFtl ftl(nand);
    const Lpn n = ftl.logical_pages();
    for (Lpn p = 0; p < n; ++p) EXPECT_TRUE(ftl.write(p).ok());
    if (trim_first) {
      for (Lpn p = 0; p < n; ++p) (void)ftl.trim(p);
    }
    // Random second pass (hostile to GC without TRIM).
    Rng rng(11);
    for (Lpn i = 0; i < n; ++i) EXPECT_TRUE(ftl.write(rng.next_below(n)).ok());
    return ftl.stats().gc_page_copies;
  };
  EXPECT_LE(run(true), run(false));
}

TEST(PageFtlTest, GcLatencyChargedToWrites) {
  NandArray nand(small_nand(16, 8));
  PageFtl ftl(nand);
  Rng rng(12);
  const Lpn n = ftl.logical_pages();
  Micros max_write = micros(0);
  for (int i = 0; i < 5000; ++i) {
    max_write = std::max(max_write, ftl.write(rng.next_below(n)).latency);
  }
  // Some write must have absorbed an erase (1.5 ms).
  EXPECT_GT(max_write, nand.config().block_erase);
}

TEST(PageFtlTest, FreePoolNeverBelowWatermarkAfterWrite) {
  FtlConfig cfg;
  cfg.gc_low_watermark = 3;
  NandArray nand(small_nand(32, 8));
  PageFtl ftl(nand, cfg);
  Rng rng(13);
  const Lpn n = ftl.logical_pages();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(ftl.write(rng.next_below(n)).ok());
    EXPECT_GE(ftl.free_blocks(), cfg.gc_low_watermark);
  }
}

TEST(PageFtlTest, TooSmallNandRejected) {
  NandArray nand(small_nand(4, 4));
  EXPECT_THROW(PageFtl ftl(nand), std::invalid_argument);
}

TEST(PageFtlTest, MeanAccessPositiveAfterTraffic) {
  NandArray nand(small_nand());
  PageFtl ftl(nand);
  EXPECT_TRUE(ftl.write(0).ok());
  EXPECT_TRUE(ftl.read(0).ok());
  EXPECT_GT(ftl.stats().mean_access().value(), 0.0);
}

// --- Run path vs page-by-page twin --------------------------------------
//
// write_run/read_run serve a run in chunks (one NAND run-program per
// active-block span); write()/read() are one-page runs. Driving one FTL
// with random-length runs and a twin with the same pages one at a time
// must give bit-identical stats, latencies and read-backs.

std::uint64_t bits(Micros m) { return std::bit_cast<std::uint64_t>(m.value()); }

void expect_same(const IoResult& a, const IoResult& b) {
  EXPECT_EQ(bits(a.latency), bits(b.latency));
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.retries, b.retries);
}

void expect_same_stats(const PageFtl& a, const PageFtl& b) {
  const FtlStats& x = a.stats();
  const FtlStats& y = b.stats();
  EXPECT_EQ(x.host_reads, y.host_reads);
  EXPECT_EQ(x.host_writes, y.host_writes);
  EXPECT_EQ(x.host_trims, y.host_trims);
  EXPECT_EQ(x.gc_invocations, y.gc_invocations);
  EXPECT_EQ(x.gc_page_copies, y.gc_page_copies);
  EXPECT_EQ(bits(x.host_busy), bits(y.host_busy));
  EXPECT_EQ(bits(x.gc_busy), bits(y.gc_busy));
  EXPECT_EQ(x.read_retries, y.read_retries);
  EXPECT_EQ(x.uncorrectable_reads, y.uncorrectable_reads);
  EXPECT_EQ(x.program_failures, y.program_failures);
  EXPECT_EQ(x.remapped_writes, y.remapped_writes);
  EXPECT_EQ(x.grown_bad_blocks, y.grown_bad_blocks);
  const NandStats& m = a.nand().stats();
  const NandStats& n = b.nand().stats();
  EXPECT_EQ(m.page_reads, n.page_reads);
  EXPECT_EQ(m.page_programs, n.page_programs);
  EXPECT_EQ(m.block_erases, n.block_erases);
  EXPECT_EQ(bits(m.busy), bits(n.busy));
  for (Pbn blk = 0; blk < a.nand().config().num_blocks; ++blk) {
    EXPECT_EQ(a.nand().erase_count(blk), b.nand().erase_count(blk));
  }
}

/// FNV-1a over every block's erase count, then the GC copy count and
/// the busy-time bits: a different victim order changes which blocks
/// wear, a different summation order the busy bits.
std::uint64_t fingerprint(const PageFtl& ftl) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (Pbn blk = 0; blk < ftl.nand().config().num_blocks; ++blk) {
    mix(ftl.nand().erase_count(blk));
  }
  mix(ftl.stats().gc_page_copies);
  mix(bits(ftl.stats().host_busy));
  mix(bits(ftl.stats().gc_busy));
  mix(bits(ftl.nand().stats().busy));
  return h;
}

struct TwinShape {
  bool wear_leveling = false;
  double program_fail_rate = 0;
  double read_fault_rate = 0;
  double over_provisioning = 0.07;
};

/// Random-length runs (1..40 pages over 16-page blocks) on the hottest
/// 93 % of the logical space, 4 in 5 of them writes. Returns the run
/// FTL's fingerprint.
std::uint64_t run_twins(const TwinShape& shape, std::uint64_t seed) {
  NandConfig cfg = small_nand(64, 16);
  cfg.fault.program_fail_rate = shape.program_fail_rate;
  cfg.fault.read_transient_rate = shape.read_fault_rate;
  cfg.fault.read_unc_rate = shape.read_fault_rate / 10;
  NandArray nand_run(cfg);
  NandArray nand_page(cfg);
  FtlConfig fcfg;
  fcfg.wear_leveling = shape.wear_leveling;
  fcfg.over_provisioning = shape.over_provisioning;
  PageFtl run(nand_run, fcfg);
  PageFtl page(nand_page, fcfg);
  Rng rng(seed);
  const Lpn hot = run.logical_pages() * 93 / 100;
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t len = 1 + rng.next_below(40);
    const Lpn first = rng.next_below(hot - len + 1);
    const bool write = rng.next_below(5) != 0;
    IoResult one_by_one;
    for (std::uint64_t i = 0; i < len; ++i) {
      one_by_one += write ? page.write(first + i) : page.read(first + i);
    }
    expect_same(write ? run.write_run(first, len) : run.read_run(first, len),
                one_by_one);
  }
  for (Lpn p = 0; p < run.logical_pages(); ++p) {
    expect_same(run.read(p), page.read(p));
  }
  expect_same_stats(run, page);
  EXPECT_GT(run.stats().gc_page_copies, 0u);
  if (shape.program_fail_rate > 0) {
    EXPECT_GT(run.stats().remapped_writes, 0u);
  }
  return fingerprint(run);
}

// The pins were recorded with the lazy-deletion candidate heap the
// bucket index replaced; equal fingerprints mean equal victim order.
TEST(PageFtlRunTest, RunsMatchPagesWithoutWearLeveling) {
  EXPECT_EQ(run_twins({}, 41), 17577971930515853853ull);
}

TEST(PageFtlRunTest, RunsMatchPagesWithWearLeveling) {
  TwinShape shape;
  shape.wear_leveling = true;
  EXPECT_EQ(run_twins(shape, 42), 6096971453115173500ull);
}

TEST(PageFtlRunTest, RunsMatchPagesUnderFaults) {
  TwinShape shape;
  // ~13 program failures over ~64k host writes: the spares outlast them.
  shape.program_fail_rate = 0.0002;
  shape.read_fault_rate = 0.02;
  shape.over_provisioning = 0.4;
  EXPECT_EQ(run_twins(shape, 43), 11334970959317949141ull);
}

TEST(PageFtlRunTest, RunsMatchPagesThroughSparePoolExhaustion) {
  // Every program fails: the first page retires blocks until the spare
  // pool is gone, then burns the active block and fails; every later
  // page fails at once.
  NandConfig cfg = small_nand(32, 8);
  cfg.fault.program_fail_rate = 1.0;
  NandArray nand_run(cfg);
  NandArray nand_page(cfg);
  PageFtl run(nand_run);
  PageFtl page(nand_page);
  for (Lpn first = 0; first < 40; first += 10) {
    IoResult one_by_one;
    for (Lpn p = first; p < first + 10; ++p) one_by_one += page.write(p);
    const IoResult whole = run.write_run(first, 10);
    EXPECT_EQ(whole.status, IoStatus::kWriteFailed);
    expect_same(whole, one_by_one);
  }
  expect_same_stats(run, page);
  EXPECT_GT(run.stats().grown_bad_blocks, 0u);
  for (Lpn p = 0; p < 40; ++p) expect_same(run.read(p), page.read(p));
}

TEST(PageFtlRunTest, RetirementThatCannotRelocateFailsTheWrite) {
  // One program in five fails, so grown bad blocks eat the spare pool
  // while a small hot set keeps live pages in every retiring block.
  // Retiring a block whose live pages the pool cannot take threw from
  // GC-stream allocation; the writes must fail cleanly instead, and
  // every page that was stored must still read back tag-checked.
  NandConfig cfg = small_nand(32, 8);
  cfg.fault.program_fail_rate = 0.2;
  NandArray nand(cfg);
  PageFtl ftl(nand);
  Rng rng(7);
  constexpr Lpn kHot = 24;
  bool failed = false;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t len = 1 + rng.next_below(12);
    const Lpn first = rng.next_below(kHot - len + 1);
    IoResult io;
    ASSERT_NO_THROW(io = ftl.write_run(first, len)) << "run " << op;
    failed |= io.status == IoStatus::kWriteFailed;
  }
  EXPECT_TRUE(failed);
  // A failure the pool cannot take retries in place: no remap, no
  // grown bad block, and the block returns to circulation.
  const auto& st = ftl.stats();
  EXPECT_GT(st.grown_bad_blocks, 20u);
  EXPECT_EQ(st.remapped_writes, st.grown_bad_blocks);
  EXPECT_GT(st.program_failures, st.remapped_writes);
  for (Lpn p = 0; p < kHot; ++p) EXPECT_NO_THROW((void)ftl.read(p));
}

}  // namespace
}  // namespace ssdse
