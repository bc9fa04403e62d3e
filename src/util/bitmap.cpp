#include "src/util/bitmap.hpp"

#include <bit>

namespace ssdse {

Bitmap::Bitmap(std::size_t n, bool value) { resize(n, value); }

void Bitmap::resize(std::size_t n, bool value) {
  const std::size_t old_size = size_;
  words_.resize((n + 63) / 64, value ? ~0ull : 0ull);
  size_ = n;
  if (n > old_size && value && old_size % 64 != 0) {
    // The previously-partial last word keeps its spare bits clear as an
    // invariant, so growing with value=true must fill its tail by hand.
    words_[old_size >> 6] |= ~((1ull << (old_size % 64)) - 1);
  }
  if (n % 64 != 0) {
    words_.back() &= (1ull << (n % 64)) - 1;  // keep spare bits clear
  }
  ones_ = 0;
  for (const std::uint64_t w : words_) {
    ones_ += static_cast<std::size_t>(std::popcount(w));
  }
}

std::size_t Bitmap::first_clear() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t inv = ~words_[w];
    if (w == words_.size() - 1 && size_ % 64 != 0) {
      inv &= (1ull << (size_ % 64)) - 1;
    }
    if (inv) {
      const std::size_t i = (w << 6) +
                            static_cast<std::size_t>(std::countr_zero(inv));
      return i < size_ ? i : size_;
    }
  }
  return size_;
}

std::size_t Bitmap::next_set(std::size_t i) const {
  if (i >= size_) return size_;
  std::size_t w = i >> 6;
  // Spare bits of the last word stay clear, so no tail mask is needed.
  std::uint64_t bits = words_[w] & (~0ull << (i & 63));
  while (bits == 0) {
    if (++w == words_.size()) return size_;
    bits = words_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void Bitmap::fill(bool value) {
  words_.assign(words_.size(), value ? ~0ull : 0ull);
  if (value && size_ % 64 != 0) {
    words_.back() &= (1ull << (size_ % 64)) - 1;
  }
  ones_ = value ? size_ : 0;
}

}  // namespace ssdse
