// Dynamic bitset used for FTL page validity maps and result-block flags
// (the paper's per-RB "flag" bitmap, Fig. 7b).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ssdse {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t n, bool value = false);

  /// Grow or shrink to n bits. Bits below min(old, n) are preserved;
  /// bits gained on growth take `value` (tombstone maps grow lazily).
  void resize(std::size_t n, bool value = false);
  [[nodiscard]] std::size_t size() const { return size_; }

  // Inline: FTL valid-count buckets flip two bits per host page write.
  bool test(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }
  void set(std::size_t i) {
    assert(i < size_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t mask = 1ull << (i & 63);
    ones_ += (w & mask) == 0;
    w |= mask;
  }
  void clear(std::size_t i) {
    assert(i < size_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t mask = 1ull << (i & 63);
    ones_ -= (w & mask) != 0;
    w &= ~mask;
  }
  void assign(std::size_t i, bool value) { value ? set(i) : clear(i); }

  /// Number of set bits (maintained incrementally, O(1)).
  [[nodiscard]] std::size_t popcount() const { return ones_; }

  /// Index of the first clear bit, or size() if all set.
  [[nodiscard]] std::size_t first_clear() const;
  /// Index of the first set bit at or after `i`, or size() if none.
  [[nodiscard]] std::size_t next_set(std::size_t i) const;

  /// Set / clear all bits.
  void fill(bool value);

  [[nodiscard]] bool all() const { return ones_ == size_; }
  [[nodiscard]] bool none() const { return ones_ == 0; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t ones_ = 0;
};

}  // namespace ssdse
