// Test-only reference for FlatLruMap: a chained LRU map (a std::list in
// recency order plus an unordered_map of list iterators). It is
// obviously correct — recency is the list order and nothing else — so
// FlatLruMap's eviction order is checked against it op for op
// (mem_cache_test's shadow tests).
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace ssdse {

template <typename K, typename V>
class ReferenceLru {
 public:
  using Entry = std::pair<K, V>;
  using const_iterator = typename std::list<Entry>::const_iterator;

  bool contains(const K& key) const { return index_.count(key) != 0; }
  [[nodiscard]] std::size_t size() const { return list_.size(); }

  /// Find and move to the MRU position.
  V* touch(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->second;
  }

  /// Insert (or overwrite) at the MRU position.
  V& insert(const K& key, V value) {
    auto [it, inserted] = index_.try_emplace(key);
    if (!inserted) {
      it->second->second = std::move(value);
      list_.splice(list_.begin(), list_, it->second);
      return it->second->second;
    }
    list_.emplace_front(key, std::move(value));
    it->second = list_.begin();
    return list_.front().second;
  }

  /// Remove a specific key. Returns the value if present.
  std::optional<V> erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    V v = std::move(it->second->second);
    list_.erase(it->second);
    index_.erase(it);
    return v;
  }

  /// Remove and return the least recently used entry.
  std::optional<Entry> pop_lru() {
    if (list_.empty()) return std::nullopt;
    Entry e = std::move(list_.back());
    list_.pop_back();
    index_.erase(e.first);
    return e;
  }

  // MRU-first iteration; rbegin()/rend() walk LRU-first.
  [[nodiscard]] const_iterator begin() const { return list_.begin(); }
  [[nodiscard]] const_iterator end() const { return list_.end(); }
  [[nodiscard]] auto rbegin() const { return list_.rbegin(); }
  [[nodiscard]] auto rend() const { return list_.rend(); }

 private:
  std::list<Entry> list_;  // front = MRU, back = LRU
  std::unordered_map<K, typename std::list<Entry>::iterator> index_;
};

}  // namespace ssdse
