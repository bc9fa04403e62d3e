// BPLRU (Kim & Ahn, FAST'08; paper §II.C): an SSD-internal RAM write
// buffer that groups dirty pages by logical block and flushes whole
// blocks sequentially ("page padding"), converting random host writes
// into the block-aligned pattern cheap for any FTL underneath.
//
// Implemented as a decorator over an inner Ftl so it composes with every
// scheme, and used in bench/ablation_ftl to contrast the paper's
// host-side write shaping (CBLRU's write buffer + RB assembly) with
// device-side shaping.
#pragma once

#include <memory>
#include <unordered_set>

#include "src/ftl/ftl.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct BplruConfig {
  /// RAM buffer capacity, in logical blocks' worth of page sets.
  std::size_t buffer_blocks = 16;
  /// Page padding: on flush, clean pages of the victim block are read
  /// from flash and rewritten so the whole block lands sequentially.
  bool page_padding = true;
  /// Cost of absorbing one page write into the RAM buffer.
  Micros ram_write = micros(2.0);
};

struct BplruStats {
  std::uint64_t buffered_writes = 0;  // host writes absorbed by RAM
  std::uint64_t buffer_read_hits = 0;
  std::uint64_t flushes = 0;          // victim blocks flushed
  std::uint64_t flushed_pages = 0;    // dirty pages written through
  std::uint64_t padded_pages = 0;     // clean pages rewritten as padding
};

class BplruFtl final : public Ftl {
 public:
  /// `inner` must wrap the same NandArray passed here.
  BplruFtl(NandArray& nand, std::unique_ptr<Ftl> inner,
           const BplruConfig& cfg = {});

  [[nodiscard]] Lpn logical_pages() const override { return inner_->logical_pages(); }
  IoResult read(Lpn lpn) override;
  IoResult write(Lpn lpn) override;
  [[nodiscard]] Micros trim(Lpn lpn) override;
  [[nodiscard]] bool supports_bad_blocks() const override {
    return inner_->supports_bad_blocks();
  }
  [[nodiscard]] std::string name() const override { return "bplru+" + inner_->name(); }

  /// Flush every buffered block (shutdown barrier).
  IoResult flush_all();

  [[nodiscard]] const BplruStats& bplru_stats() const { return bstats_; }
  Ftl& inner() { return *inner_; }

 private:
  using BlockSet = std::unordered_set<std::uint32_t>;  // dirty page offsets

  std::uint64_t block_of_lpn(Lpn lpn) const {
    return lpn / nand_.config().pages_per_block;
  }
  IoResult flush_block(std::uint64_t lbn, const BlockSet& dirty);
  IoResult flush_victim();

  std::unique_ptr<Ftl> inner_;
  BplruConfig cfg_;
  // Logical block -> dirty page offsets.
  FlatLruMap<std::uint64_t, BlockSet> buffer_;
  BplruStats bstats_;
};

}  // namespace ssdse
