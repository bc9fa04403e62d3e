// Sieve admission filter (after Pritchett & Thottethodi's SieveStore,
// ISCA'10 — cited by the paper as the "highly-selective ensemble-level
// disk cache"). Only items that miss repeatedly earn SSD space: the
// filter counts accesses in a bounded *ghost* table (keys only, no
// data) and admits a key once it has been seen `threshold` times.
//
// Optional in front of the SSD list cache (CacheConfig::sieve_threshold)
// as an alternative selectivity mechanism to the paper's EV/TEV — the
// ablation bench compares them.
#pragma once

#include <cstdint>

#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct SieveStats {
  std::uint64_t observations = 0;
  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;
};

class SieveFilter {
 public:
  /// `threshold`: accesses required before admission (1 = admit all).
  /// `ghost_capacity`: bounded key table; old keys age out (LRU), so
  /// popularity must re-prove itself after long absences.
  SieveFilter(std::uint32_t threshold, std::size_t ghost_capacity);

  /// Observe an access to `key`; true = admit now (counter consumed).
  bool observe_and_admit(std::uint64_t key);

  /// Current count for a key (0 if unknown / aged out).
  std::uint32_t count(std::uint64_t key) const;

  [[nodiscard]] std::size_t ghost_size() const { return ghost_.size(); }
  [[nodiscard]] const SieveStats& stats() const { return stats_; }

 private:
  std::uint32_t threshold_;
  std::size_t capacity_;
  FlatLruMap<std::uint64_t, std::uint32_t> ghost_;
  SieveStats stats_;
};

}  // namespace ssdse
