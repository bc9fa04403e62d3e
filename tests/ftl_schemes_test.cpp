// Cross-scheme FTL tests: block mapping, the factory, and a lockstep
// sweep that runs every scheme against tests/reference_ftl.hpp under
// several workload shapes (plus a program-fault stream for schemes with
// bad-block management).
#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ftl/block_ftl.hpp"
#include "src/ftl/factory.hpp"
#include "src/util/rng.hpp"
#include "tests/reference_ftl.hpp"

namespace ssdse {
namespace {

NandConfig small_nand(std::uint32_t blocks = 64,
                      std::uint32_t pages_per_block = 16) {
  NandConfig cfg;
  cfg.num_blocks = blocks;
  cfg.pages_per_block = pages_per_block;
  return cfg;
}

// --- BlockFtl ----------------------------------------------------------

TEST(BlockFtlTest, SequentialFillNoMerges) {
  NandArray nand(small_nand());
  BlockFtl ftl(nand);
  for (Lpn p = 0; p < 64; ++p) EXPECT_TRUE(ftl.write(p).ok());
  EXPECT_EQ(ftl.stats().gc_invocations, 0u);
  EXPECT_EQ(nand.stats().block_erases, 0u);
  for (Lpn p = 0; p < 64; ++p) EXPECT_TRUE(ftl.read(p).ok());
}

TEST(BlockFtlTest, OverwriteForcesCopyMerge) {
  NandArray nand(small_nand());
  BlockFtl ftl(nand);
  for (Lpn p = 0; p < 16; ++p) EXPECT_TRUE(ftl.write(p).ok());  // fill block 0
  const auto erases_before = nand.stats().block_erases;
  EXPECT_TRUE(ftl.write(3).ok());  // overwrite -> copy-merge + erase of old block
  EXPECT_EQ(nand.stats().block_erases, erases_before + 1);
  EXPECT_GT(ftl.stats().gc_page_copies, 0u);
  for (Lpn p = 0; p < 16; ++p) EXPECT_TRUE(ftl.read(p).ok());
}

TEST(BlockFtlTest, SkippedOffsetsPadded) {
  NandArray nand(small_nand());
  BlockFtl ftl(nand);
  EXPECT_TRUE(ftl.write(5).ok());  // lbn 0, offset 5: pages 0..4 must be pad-programmed
  EXPECT_EQ(nand.stats().page_programs, 6u);
  EXPECT_TRUE(ftl.read(5).ok());
  // Unwritten neighbours stay unreadable-but-legal.
  EXPECT_TRUE(ftl.read(4).ok());
}

TEST(BlockFtlTest, TrimWholeBlockFreesIt) {
  NandArray nand(small_nand());
  BlockFtl ftl(nand);
  const auto before = ftl.free_blocks();
  EXPECT_TRUE(ftl.write(0).ok());
  EXPECT_TRUE(ftl.write(1).ok());
  EXPECT_EQ(ftl.free_blocks(), before - 1);
  (void)ftl.trim(0);
  (void)ftl.trim(1);
  EXPECT_EQ(ftl.free_blocks(), before);  // erased + returned
}

TEST(BlockFtlTest, RandomChurnKeepsDataIntact) {
  NandArray nand(small_nand());
  BlockFtl ftl(nand);
  Rng rng(21);
  const Lpn n = std::min<Lpn>(ftl.logical_pages(), 256);
  for (int i = 0; i < 3000; ++i) EXPECT_TRUE(ftl.write(rng.next_below(n)).ok());
  for (Lpn p = 0; p < n; ++p) EXPECT_TRUE(ftl.read(p).ok());
}

// --- Factory -----------------------------------------------------------------

TEST(FtlFactoryTest, MakesEverySchemeAndRejectsUnknown) {
  for (const auto& name : ftl_scheme_names()) {
    NandArray nand(small_nand());
    auto ftl = make_ftl(name, nand);
    ASSERT_NE(ftl, nullptr) << name;
    EXPECT_EQ(ftl->name(), name);
    EXPECT_GT(ftl->logical_pages(), 0u);
  }
  NandArray nand(small_nand());
  EXPECT_THROW(make_ftl("bogus", nand), std::invalid_argument);
}

// --- Lockstep sweep against the reference store ------------------------------

enum class Shape {
  kSequential,     // write_run over consecutive pages, wrapping
  kRandom,         // uniform single-page writes
  kHotCold,        // 80 % of writes to 10 % of the pages
  kTrimMix,        // random writes with 30 % interleaved trims
  kGcPressure,     // whole logical space, >= 90 % of it live throughout
  kProgramFaults,  // random writes with injected program failures (BBM only)
};
constexpr const char* kShapeNames[] = {"sequential", "random",   "hotcold",
                                       "trimmix",    "gcpressure", "faults"};

struct SweepCase {
  std::string scheme;
  Shape shape;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.scheme << "/" << kShapeNames[static_cast<int>(c.shape)];
}

/// Issues every host op to the FTL and to the reference store alike.
/// Each read checks that the FTL touched flash exactly when the
/// reference says the page holds data (one NAND page read, no retries
/// with read faults off); the FTL's own tag check verifies the version.
class Lockstep {
 public:
  Lockstep(Ftl& ftl, NandArray& nand)
      : ftl_(ftl), nand_(nand), ref_(ftl.logical_pages()) {}

  void write(Lpn lpn) {
    EXPECT_TRUE(ftl_.write(lpn).ok()) << "lpn " << lpn;
    ref_.write(lpn);
  }
  void write_run(Lpn first, std::uint64_t count) {
    EXPECT_TRUE(ftl_.write_run(first, count).ok()) << "run at " << first;
    for (std::uint64_t i = 0; i < count; ++i) ref_.write(first + i);
  }
  void trim(Lpn lpn) {
    (void)ftl_.trim(lpn);
    ref_.trim(lpn);
  }
  void read(Lpn lpn) {
    const std::uint64_t before = nand_.stats().page_reads;
    EXPECT_TRUE(ftl_.read(lpn).ok()) << "lpn " << lpn;
    expect_flash_reads(before, lpn, 1);
  }
  void read_run(Lpn first, std::uint64_t count) {
    const std::uint64_t before = nand_.stats().page_reads;
    EXPECT_TRUE(ftl_.read_run(first, count).ok()) << "run at " << first;
    expect_flash_reads(before, first, count);
  }
  /// Read back pages [0, n): every one verifies or is legally unmapped.
  void read_all(Lpn n) {
    for (Lpn p = 0; p < n; ++p) read(p);
  }

  void expect_host_counts() const {
    const FtlStats& s = ftl_.stats();
    EXPECT_EQ(s.host_writes, ref_.host_writes());
    EXPECT_EQ(s.host_reads, ref_.host_reads());
    EXPECT_EQ(s.host_trims, ref_.host_trims());
  }

  [[nodiscard]] const ReferenceFtl& ref() const { return ref_; }

 private:
  void expect_flash_reads(std::uint64_t before, Lpn first,
                          std::uint64_t count) {
    std::uint64_t mapped = 0;
    for (std::uint64_t i = 0; i < count; ++i) mapped += ref_.read(first + i);
    EXPECT_EQ(nand_.stats().page_reads - before, mapped)
        << "pages [" << first << ", " << first + count << "), version of "
        << first << " is " << ref_.version(first);
  }

  Ftl& ftl_;
  NandArray& nand_;
  ReferenceFtl ref_;
};

class FtlSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FtlSweepTest, LockstepWithReferenceStore) {
  const Shape shape = GetParam().shape;
  NandConfig nc = small_nand(96, 8);
  FtlConfig fc;
  if (shape == Shape::kProgramFaults) {
    // A generous spare pool: every grown bad block shrinks it for good.
    nc.fault.program_fail_rate = 0.003;
    fc.over_provisioning = 0.4;
  }
  NandArray nand(nc);
  auto ftl = make_ftl(GetParam().scheme, nand, fc);
  Lockstep ls(*ftl, nand);
  Rng rng(1000 + static_cast<int>(shape));
  const Lpn n = shape == Shape::kGcPressure
                    ? ftl->logical_pages()
                    : std::min<Lpn>(ftl->logical_pages(), 256);
  const Lpn live_floor = n - n / 10;  // GC pressure keeps >= 90 % live
  if (shape == Shape::kGcPressure) ls.write_run(0, n);

  Lpn cursor = 0;
  std::uint64_t remaps = 0;
  for (int i = 0; i < 4000; ++i) {
    switch (shape) {
      case Shape::kSequential: {
        const Lpn count = std::min<Lpn>(4, n - cursor);
        ls.write_run(cursor, count);
        cursor = (cursor + count) % n;
        break;
      }
      case Shape::kHotCold:
        ls.write(rng.chance(0.8) ? rng.next_below(n / 10 + 1)
                                 : rng.next_below(n));
        break;
      default:
        ls.write(rng.next_below(n));
        break;
    }
    if (shape == Shape::kTrimMix && rng.chance(0.3)) {
      ls.trim(rng.next_below(n));
    }
    if (shape == Shape::kGcPressure && rng.chance(0.1) &&
        ls.ref().live_pages() > live_floor) {
      ls.trim(rng.next_below(n));
    }
    if (ftl->stats().remapped_writes != remaps) {
      // Read-your-writes after every remap: the retired block's pages
      // were relocated, and nothing may have been lost on the way.
      remaps = ftl->stats().remapped_writes;
      ls.read_all(n);
    }
    if (rng.chance(0.2)) ls.read(rng.next_below(n));
    if (rng.chance(0.05)) {
      const Lpn first = rng.next_below(n);
      ls.read_run(first, std::min<Lpn>(1 + rng.next_below(8), n - first));
    }
  }
  ls.read_all(n);
  ls.expect_host_counts();

  const FtlStats& s = ftl->stats();
  EXPECT_GT(s.host_busy.value(), 0.0);
  EXPECT_GE(nand.stats().page_programs, s.host_writes);
  EXPECT_GE(s.write_amplification(nand.stats()), 1.0);
  if (shape == Shape::kGcPressure) {
    EXPECT_GE(ls.ref().live_pages(), live_floor);
    EXPECT_GT(s.gc_invocations, 0u);
  }
  if (shape == Shape::kProgramFaults) {
    // Each failure retires the active block, remaps the write, and grows
    // exactly one bad block.
    EXPECT_GT(s.program_failures, 0u);
    EXPECT_EQ(s.program_failures, s.remapped_writes);
    EXPECT_EQ(s.program_failures, s.grown_bad_blocks);
  } else {
    EXPECT_EQ(s.program_failures, 0u);
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const auto& scheme : ftl_scheme_names()) {
    for (Shape s = Shape::kSequential; s != Shape::kProgramFaults;
         s = static_cast<Shape>(static_cast<int>(s) + 1)) {
      cases.push_back({scheme, s});
    }
    NandArray nand(small_nand());
    if (make_ftl(scheme, nand)->supports_bad_blocks()) {
      cases.push_back({scheme, Shape::kProgramFaults});
    }
  }
  return cases;
}

std::string sweep_case_name(
    const ::testing::TestParamInfo<SweepCase>& info) {
  return info.param.scheme + "_" +
         kShapeNames[static_cast<int>(info.param.shape)];
}

INSTANTIATE_TEST_SUITE_P(AllSchemesAllWorkloads, FtlSweepTest,
                         ::testing::ValuesIn(sweep_cases()),
                         sweep_case_name);

}  // namespace
}  // namespace ssdse
