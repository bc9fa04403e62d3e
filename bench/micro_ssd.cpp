// Micro-benchmarks (google-benchmark): raw cost of the storage substrate
// operations — NAND ops, FTL writes under different locality, SSD
// sector I/O, HDD seeks. These measure *simulator* throughput (host ops
// per wall-clock second), guarding against regressions that would make
// the full-figure benches impractically slow.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/ftl/factory.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/ssd/ssd.hpp"
#include "src/storage/hdd.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

NandConfig bench_nand() {
  NandConfig cfg;
  cfg.num_blocks = 1024;
  return cfg;
}

void BM_NandProgramErase(benchmark::State& state) {
  NandArray nand(bench_nand());
  const auto ppb = nand.config().pages_per_block;
  std::uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand.program_page(page, page));
    if (++page % ppb == 0) {
      const Pbn blk = static_cast<Pbn>(page / ppb - 1);
      benchmark::DoNotOptimize(nand.erase_block(blk));
      page -= ppb;
    }
  }
}
BENCHMARK(BM_NandProgramErase);

void BM_FtlWrite(benchmark::State& state, const std::string& scheme,
                 bool sequential) {
  NandArray nand(bench_nand());
  auto ftl = make_ftl(scheme, nand);
  Rng rng(7);
  const Lpn n = ftl->logical_pages();
  Lpn cursor = 0;
  for (auto _ : state) {
    const Lpn lpn = sequential ? (cursor++ % n) : rng.next_below(n);
    benchmark::DoNotOptimize(ftl->write(lpn));
  }
}
BENCHMARK_CAPTURE(BM_FtlWrite, page_sequential, "page", true);
BENCHMARK_CAPTURE(BM_FtlWrite, page_random, "page", false);

// The perfbench lru_baseline shape: 20-page runs at random offsets in
// the hottest 93 % of the logical space of a cache SSD that size (about
// 950 MiB raw), so steady-state GC copies live pages.
void BM_FtlWriteRun(benchmark::State& state, std::uint64_t pages) {
  NandConfig cfg;
  cfg.num_blocks = 7'600;
  NandArray nand(cfg);
  PageFtl ftl(nand);
  const Lpn span = ftl.logical_pages() * 93 / 100;
  for (Lpn p = 0; p < span; p += pages) {
    benchmark::DoNotOptimize(ftl.write_run(p, std::min(pages, span - p)));
  }
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ftl.write_run(rng.next_below(span - pages + 1), pages));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages));
}
BENCHMARK_CAPTURE(BM_FtlWriteRun, page_run20, 20);

void BM_FtlRead(benchmark::State& state) {
  NandArray nand(bench_nand());
  PageFtl ftl(nand);
  for (Lpn p = 0; p < 4096; ++p) benchmark::DoNotOptimize(ftl.write(p));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.read(rng.next_below(4096)));
  }
}
BENCHMARK(BM_FtlRead);

void BM_SsdSectorWrite(benchmark::State& state) {
  SsdConfig cfg;
  cfg.nand = bench_nand();
  Ssd ssd(cfg);
  Rng rng(9);
  const Lba max_lba = ssd.capacity_bytes() / kSectorSize - 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ssd.write(rng.next_below(max_lba), static_cast<std::uint32_t>(
                                               state.range(0))));
  }
}
BENCHMARK(BM_SsdSectorWrite)->Arg(8)->Arg(64)->Arg(256);

void BM_HddRandomRead(benchmark::State& state) {
  HddModel hdd;
  Rng rng(10);
  const Lba max_lba = hdd.capacity_bytes() / kSectorSize - 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdd.read(rng.next_below(max_lba), 512));
  }
}
BENCHMARK(BM_HddRandomRead);

}  // namespace
}  // namespace ssdse
