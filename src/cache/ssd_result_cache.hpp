// L2 result cache ("L2 RC") under CBLRU/CBSLRU (paper §VI.C.1).
//
// Result entries reach the SSD only as fully assembled 128 KiB result
// blocks (RBs) from the write buffer — large sequential writes instead
// of per-entry random writes (Fig. 10). Mappings follow Fig. 7: a query
// map (query -> RB/slot/freq) and an RB map with the per-slot validity
// "flag" bitmap. Replacement (Fig. 11): the LRU list of RBs is split
// into a Working Region and a Replace-First Region of window W; the
// victim is the RB with the largest IREN (invalid result entry number =
// invalidated slots + slots read back into memory).
//
// CBSLRU adds a static partition: RBs preloaded from query-log analysis
// that are pinned — never in the LRU list, never victimized.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_image.hpp"
#include "src/cache/mem_result_cache.hpp"
#include "src/cache/policy.hpp"
#include "src/cache/ssd_cache_file.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct SsdResultCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t rb_writes = 0;
  std::uint64_t entries_written = 0;
  std::uint64_t entries_dropped_by_overwrite = 0;
  std::uint64_t resurrections = 0;
  std::uint64_t read_errors = 0;  // uncorrectable flash reads -> miss
};

class SsdResultCache {
 public:
  /// `file` must be dedicated to this cache. W = replace-first window.
  SsdResultCache(SsdCacheFile& file, std::uint32_t replace_window);

  /// SSD lookup; on a hit the entry is read from flash and its slot is
  /// marked memory-resident (block state -> replaceable, Fig. 9).
  /// `time` accumulates the flash read cost; `born_out` (optional)
  /// receives the entry's freshness anchor for TTL checks. `io_status`
  /// (optional) receives the flash read's status: on kUncorrectable the
  /// entry is invalidated internally and nullptr is returned — exactly
  /// the miss path, just with the failed read's latency in `time`. A
  /// hit's pointer is valid until the next insert or erase on this cache.
  const ResultEntry* lookup(QueryId qid, std::uint64_t& freq_out,
                            Micros& time, std::uint64_t* born_out = nullptr,
                            IoStatus* io_status = nullptr);

  /// TTL expiry: mark the slot invalid and forget the entry. Handles
  /// both dynamic and static copies. Returns true if it was present.
  bool invalidate(QueryId qid);

  /// Flush one assembled RB (up to results_per_rb entries). Returns the
  /// flash write time. Entries dropped by the overwrite are gone from
  /// the SSD (counted in stats).
  [[nodiscard]] Micros insert_rb(std::span<CachedResult> entries);

  /// Write-buffer cancellation: if `qid` is still present with its slot
  /// in the memory-resident (replaceable) state, revalidate it instead
  /// of rewriting. Returns true when cancellation applies.
  bool resurrect(QueryId qid);

  /// Pin `entries` as the static partition (CBSLRU preload). Call before
  /// any dynamic traffic. Returns flash write time.
  [[nodiscard]] Micros preload_static(std::span<CachedResult> entries);

  /// Persistence (src/recovery): durable mutations (RB flushes,
  /// invalidations) are reported here write-ahead. May be null.
  void set_journal(CacheJournalSink* sink) { journal_ = sink; }

  /// Serialize the full metadata state (RB map, result map, validity
  /// flags, recency order) into `out` for a snapshot.
  void export_image(std::vector<RbImage>& out,
                    std::vector<RbImage>& static_out) const;

  /// Warm restart: rebuild the maps from a recovered image. Must be
  /// called on a freshly constructed cache; adopts the image's blocks
  /// in the cache file. Returns the adoption (recovery) flash time.
  [[nodiscard]] Micros restore_image(const std::vector<RbImage>& rbs,
                       const std::vector<RbImage>& static_rbs);

  bool contains(QueryId qid) const {
    return map_.count(qid) != 0 || static_map_.count(qid) != 0;
  }
  /// Pinned in the static partition (CBSLRU): already on SSD forever, so
  /// evicting its memory copy must not trigger a rewrite.
  bool is_static(QueryId qid) const { return static_map_.count(qid) != 0; }
  [[nodiscard]] std::uint32_t results_per_rb() const { return slots_per_rb_; }
  [[nodiscard]] std::size_t entry_count() const {
    return map_.size() + static_map_.size();
  }
  [[nodiscard]] const SsdResultCacheStats& stats() const { return stats_; }

 private:
  static constexpr Bytes kSlotBytes = CacheConfig::kResultEntrySlotBytes;

  struct Loc {
    std::uint32_t rb = 0;
    std::uint32_t slot = 0;
    bool is_static = false;
  };
  struct RbInfo {
    std::vector<CachedResult> entries;  // by slot
    std::vector<std::uint8_t> slot_state;  // 0 valid, 1 in-memory, 2 invalid
    std::uint32_t iren = 0;
  };

  [[nodiscard]] std::uint32_t pages_per_slot() const;
  /// Choose the overwrite victim per Fig. 11; evicts its entries.
  std::optional<std::uint32_t> acquire_block();
  void drop_rb(std::uint32_t cb);

  SsdCacheFile& file_;
  std::uint32_t window_;
  std::uint32_t slots_per_rb_;
  CacheJournalSink* journal_ = nullptr;
  FlatLruMap<std::uint32_t, RbInfo> rbs_;       // key: cache block id
  std::unordered_map<QueryId, Loc> map_;        // dynamic entries
  std::unordered_map<QueryId, Loc> static_map_; // pinned entries
  std::vector<RbInfo> static_rbs_;              // indexed by Loc.rb
  std::vector<std::uint32_t> static_blocks_;    // file block ids
  SsdResultCacheStats stats_;
};

}  // namespace ssdse
