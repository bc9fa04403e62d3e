// Page-mapping FTL — the paper's baseline ("ideal page-based FTL",
// Intel AP-684). Full page-granular 32-bit mapping tables, out-of-place
// writes into per-stream active blocks served a run at a time, greedy
// (min-valid-pages) garbage collection over a valid-count bucket index,
// hot/cold separation between host and GC write streams.
#pragma once

#include <vector>

#include "src/ftl/ftl.hpp"
#include "src/util/bitmap.hpp"

namespace ssdse {

class PageFtl final : public Ftl {
 public:
  PageFtl(NandArray& nand, const FtlConfig& cfg = {});

  [[nodiscard]] Lpn logical_pages() const override { return logical_pages_; }
  /// One-page runs: every host page goes through the run path.
  IoResult read(Lpn lpn) override { return read_run(lpn, 1); }
  IoResult read_run(Lpn first, std::uint64_t count) override;
  IoResult write(Lpn lpn) override { return write_run(lpn, 1); }
  IoResult write_run(Lpn first, std::uint64_t count) override;
  [[nodiscard]] Micros trim(Lpn lpn) override;
  /// Program failures are absorbed by grown-bad-block retirement +
  /// remap; the host write always succeeds (until spares exhaust).
  [[nodiscard]] bool supports_bad_blocks() const override { return true; }
  [[nodiscard]] std::string name() const override { return "page"; }

  [[nodiscard]] std::size_t free_blocks() const { return free_blocks_.size(); }

 private:
  static constexpr std::uint32_t kUnmapped = kInvalidU32;
  static constexpr Micros kCtrlOverhead = micros(5.0);

  enum class BState : std::uint8_t { kFree, kActive, kUsed, kBad };

  /// Run GC until the free pool is back above the watermark, or until
  /// grown bad blocks leave no reclaimable victim. Returns the
  /// accumulated latency (charged to the triggering host write).
  [[nodiscard]] Micros collect_garbage();
  /// Reclaim one block from the bucket of Used blocks with `v` valid
  /// pages.
  [[nodiscard]] Micros gc_once(std::uint32_t v);
  /// Grown-bad-block handling: retire stream `s`'s active block after a
  /// program failure — install a fresh active block, relocate the dying
  /// block's valid pages onto the GC stream, erase it once, and mark it
  /// kBad (never returned to the free pool). Returns the latency.
  [[nodiscard]] Micros retire_active_block(int s);
  /// Whether the free pool, less `held` blocks, can take `pages` valid
  /// pages of one block onto the GC stream. GC picks only victims that
  /// fit (held 0); a failed host block is retired only when its pages
  /// fit with the replacement block held (1). When it is not, the block
  /// stays active and the failed page retries in it; once it fills with
  /// no free block left the write returns kWriteFailed.
  [[nodiscard]] bool relocation_fits(std::uint32_t pages,
                                     std::size_t held) const;
  /// Copy block `b`'s valid pages onto the GC stream, stopping once its
  /// valid count reaches 0. Returns the NAND latency. Throws
  /// std::logic_error if the count outlasts the block's pages.
  [[nodiscard]] Micros relocate_valid_pages(Pbn b);
  /// Seal stream `s`'s full active block (it becomes a GC candidate) and
  /// install a fresh one from the free pool.
  void open_block(int s);
  /// Allocate the next physical page on the GC stream, opening a new
  /// active block when the current one fills.
  std::uint32_t alloc_gc_page();
  Pbn pop_free_block();
  void push_free_block(Pbn b);
  /// `pages` of block `blk` lost their data: lower its valid count and
  /// move it down the victim index if it is Used.
  void drop_valid(Pbn blk, std::uint32_t pages);
  /// Count `count` host writes from `first`: bump their versions and
  /// invalidate their old copies. Valid counts are exact on return.
  void supersede(Lpn first, std::uint32_t count);
  void check_run(Lpn first, std::uint64_t count) const;

  FtlConfig cfg_;
  Lpn logical_pages_;
  std::vector<std::uint32_t> map_;     // lpn -> ppn
  std::vector<std::uint32_t> rmap_;    // ppn -> lpn (GC lookup)
  std::vector<std::uint32_t> version_; // lpn -> expected tag version
  std::vector<std::uint32_t> valid_;   // block -> valid page count
  std::vector<BState> state_;          // block -> lifecycle state
  std::vector<std::uint32_t> seal_wear_;  // wear key at seal time (WL)
  // GC victim index: by_valid_[v] holds the Used blocks with v valid
  // pages. The victim is the lowest block of the lowest non-empty
  // bucket; under wear leveling, the bucket's least (seal_wear, block).
  std::vector<Bitmap> by_valid_;
  std::vector<std::uint64_t> run_tags_;  // host tags of one program run
  std::vector<Pbn> free_blocks_;  // max-heap-by-(-wear) when WL is on
  Pbn active_[2];                      // [0] host stream, [1] GC stream
  std::uint32_t cursor_[2];            // next page within active block
};

}  // namespace ssdse
