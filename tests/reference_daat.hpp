// Test-only reference for DaatProcessor: the seed's conjunctive DAAT
// algorithm, which copies and re-sorts every touched posting list per
// query, advances cursors by plain scan, collects every match and
// partial-sorts. It is slow by design; its value is that it is
// obviously correct, so the block-cursor DaatProcessor is checked
// against it bit-for-bit — results, score bits, docs_scored and
// postings_touched (daat_equivalence_test).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/engine/daat.hpp"
#include "src/engine/result.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

/// Doc-id-sorted copy of a posting list.
class DocSortedList {
 public:
  explicit DocSortedList(const PostingList& list)
      : DocSortedList(std::vector<Posting>(list.postings().begin(),
                                           list.postings().end())) {}
  /// From raw postings (any order); used where a term's current
  /// postings come from an overlay merge rather than a stored list.
  explicit DocSortedList(std::vector<Posting> postings)
      : postings_(std::move(postings)) {
    std::sort(postings_.begin(), postings_.end(),
              [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
  }

  [[nodiscard]] std::size_t size() const { return postings_.size(); }
  [[nodiscard]] bool empty() const { return postings_.empty(); }
  const Posting& operator[](std::size_t i) const { return postings_[i]; }

  /// Smallest index i >= `from` with doc id >= `target`, or size() if
  /// none.
  [[nodiscard]] std::size_t advance(std::size_t from, DocId target) const {
    std::size_t pos = std::min(from, postings_.size());
    while (pos < postings_.size() && postings_[pos].doc < target) ++pos;
    return pos;
  }

 private:
  std::vector<Posting> postings_;  // doc-id ascending
};

/// Seed-semantics conjunctive top-K. Overlay-aware through num_docs()
/// and live_doc_sorted(), so it scores a churned index the way a
/// rebuilt one would. Reports docs_scored and postings_touched;
/// skip_hops stays 0 (it has no skip table).
class NaiveDaatProcessor {
 public:
  explicit NaiveDaatProcessor(std::size_t top_k = kTopK) : top_k_(top_k) {}

  ResultEntry intersect(const MaterializedIndex& index, const Query& query,
                        DaatStats* stats = nullptr) const {
    ResultEntry out;
    out.query = query.id;
    if (query.terms.empty()) return out;

    // Doc-sorted copies, shortest list first (drives the loop).
    std::vector<DocSortedList> lists;
    lists.reserve(query.terms.size());
    std::vector<double> idf;
    const double n_docs = static_cast<double>(index.num_docs());
    std::vector<Posting> live;
    for (TermId t : query.terms) {
      if (index.live_doc_sorted(t, live)) {
        lists.emplace_back(std::move(live));
        live.clear();
      } else {
        lists.emplace_back(*index.postings(t));
      }
      idf.push_back(std::log(
          1.0 + n_docs / (static_cast<double>(lists.back().size()) + 1.0)));
    }
    std::vector<std::size_t> order(lists.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return lists[a].size() < lists[b].size();
    });
    if (lists[order[0]].empty()) return out;

    std::vector<std::size_t> cursor(lists.size(), 0);
    std::vector<ScoredDoc> matches;
    std::uint64_t touched = 0;

    const DocSortedList& driver = lists[order[0]];
    for (std::size_t dpos = 0; dpos < driver.size();) {
      const DocId candidate = driver[dpos].doc;
      ++touched;
      double score = std::log(1.0 + driver[dpos].tf) * idf[order[0]];
      bool all = true;
      DocId next_candidate = candidate + 1;
      for (std::size_t k = 1; k < order.size() && all; ++k) {
        const std::size_t li = order[k];
        cursor[li] = lists[li].advance(cursor[li], candidate);
        ++touched;
        if (cursor[li] >= lists[li].size()) {
          // This list is exhausted: no further candidate can match.
          dpos = driver.size();
          all = false;
          break;
        }
        if (lists[li][cursor[li]].doc != candidate) {
          next_candidate = lists[li][cursor[li]].doc;
          all = false;
        } else {
          score += std::log(1.0 + lists[li][cursor[li]].tf) * idf[li];
        }
      }
      if (dpos >= driver.size()) break;
      if (all) {
        matches.push_back(ScoredDoc{candidate, static_cast<float>(score)});
        ++dpos;
      } else {
        // Leap the driver to the blocking list's doc id.
        dpos = driver.advance(dpos, next_candidate);
      }
    }

    const std::size_t k = std::min(top_k_, matches.size());
    std::partial_sort(matches.begin(),
                      matches.begin() + static_cast<std::ptrdiff_t>(k),
                      matches.end(),
                      [](const ScoredDoc& a, const ScoredDoc& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.doc < b.doc;
                      });
    if (stats) {
      stats->docs_scored = matches.size();
      stats->postings_touched = touched;
      stats->skip_hops = 0;
    }
    matches.resize(k);
    out.docs = std::move(matches);
    return out;
  }

 private:
  std::size_t top_k_;
};

}  // namespace ssdse
