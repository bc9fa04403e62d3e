#include "src/engine/scorer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/engine/top_k.hpp"

namespace ssdse {

namespace {

/// Deterministic pseudo-doc for analytic top-K synthesis.
DocId synth_doc(QueryId q, std::size_t i, std::uint64_t num_docs) {
  std::uint64_t x = q.raw() * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 29;
  return static_cast<DocId>(x % num_docs);
}

/// A frequency-sorted list read as it stands.
class ListCursor {
 public:
  explicit ListCursor(std::span<const Posting> list) : list_(list) {}
  [[nodiscard]] const Posting* peek() const {
    return i_ < list_.size() ? &list_[i_] : nullptr;
  }
  void pop() { ++i_; }

 private:
  std::span<const Posting> list_;
  std::size_t i_ = 0;
};

/// A dirty term's current list, produced lazily: the base list with
/// tombstoned docs skipped, merged with the live run. Both inputs are
/// in freq_sorted_before order and their doc ids are disjoint (live ids
/// follow every base id), so the merge yields exactly the sequence a
/// full re-sort of base-minus-tombstones plus live would.
class MergeCursor {
 public:
  MergeCursor(std::span<const Posting> base, std::span<const Posting> live,
              const LiveOverlay& overlay)
      : base_(base), live_(live), overlay_(overlay) {
    settle();
  }
  [[nodiscard]] const Posting* peek() const { return head_; }
  void pop() {
    ++(from_live_ ? l_ : b_);
    settle();
  }

 private:
  void settle() {
    while (b_ < base_.size() && overlay_.is_deleted(base_[b_].doc)) ++b_;
    const bool has_base = b_ < base_.size();
    from_live_ = l_ < live_.size() &&
                 (!has_base || freq_sorted_before(live_[l_], base_[b_]));
    head_ = from_live_ ? &live_[l_] : has_base ? &base_[b_] : nullptr;
  }

  std::span<const Posting> base_;
  std::span<const Posting> live_;
  const LiveOverlay& overlay_;
  std::size_t b_ = 0;
  std::size_t l_ = 0;
  bool from_live_ = false;
  const Posting* head_ = nullptr;
};

}  // namespace

void Scorer::Accumulator::begin(std::uint64_t num_docs) {
  if (slots_.size() < num_docs) slots_.resize(num_docs);
  touched_.clear();
  if (++gen_ == 0) {  // generation wrapped: stale stamps could match
    for (Slot& slot : slots_) slot.stamp = 0;
    gen_ = 1;
  }
}

ScoreOutcome Scorer::score(IndexView& index, const Query& query) const {
  if (auto* mat = dynamic_cast<MaterializedIndex*>(&index)) {
    return score_materialized(*mat, query);
  }
  return score_analytic(index, query);
}

template <class Cursor>
std::size_t Scorer::walk(Cursor& cursor, double idf) const {
  const auto tf_floor = static_cast<std::uint32_t>(
      std::ceil(cfg_.tf_cutoff * static_cast<double>(cursor.peek()->tf)));
  const auto needed_candidates = static_cast<std::size_t>(
      cfg_.candidate_multiple * static_cast<double>(cfg_.top_k));
  // The list is tf-sorted, so a posting's weight only changes between
  // tf runs. The tf == 0 sentinel is exact: log(1 + 0) * idf is 0.
  std::uint32_t run_tf = 0;
  float run_weight = 0.0f;
  std::size_t i = 0;
  for (const Posting* p = cursor.peek(); p != nullptr;
       cursor.pop(), p = cursor.peek(), ++i) {
    // Early termination: low-tf tail cannot displace the top-K once
    // enough candidates are accumulated.
    if (p->tf < tf_floor && acc_.size() >= needed_candidates) break;
    if (p->tf != run_tf) {
      run_tf = p->tf;
      run_weight = static_cast<float>(std::log(1.0 + p->tf) * idf);
    }
    acc_.add(p->doc, run_weight);
  }
  return i;
}

ScoreOutcome Scorer::score_materialized(MaterializedIndex& index,
                                        const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  out.terms.reserve(query.terms.size());
  acc_.begin(index.num_docs());

  // Live-index churn: a dirty term is walked as a lazy merge of its base
  // list and its live run, with df = base size + df_delta, and every
  // term's idf is recomputed against the current N (the stored
  // TermMeta::idf predates the live doc slots). With a clean (or absent)
  // overlay this is inert and the function is bit-identical to the
  // read-only build.
  const LiveOverlay* overlay = index.overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs =
      churned ? static_cast<double>(index.num_docs()) : 0.0;

  for (TermId t : query.terms) {
    const PostingList& base = *index.postings(t);
    const bool dirty = churned && overlay->term_dirty(t);
    const auto df = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(base.size()) +
        (dirty ? overlay->df_delta(t) : 0));
    TermScoreInfo info{t, 0, 1.0};
    if (df > 0) {
      // Without churn, the idf precomputed at index build
      // (TermMeta::idf) — no per-query std::log for list weighting.
      const double idf =
          churned ? std::log(1.0 + n_docs / static_cast<double>(df))
                  : index.term_meta_fast(t).idf;
      if (dirty) {
        live_.clear();
        overlay->collect_live(t, live_);
        std::sort(live_.begin(), live_.end(), freq_sorted_before);
        MergeCursor cursor(base.postings(), live_, *overlay);
        info.postings_processed = walk(cursor, idf);
      } else {
        ListCursor cursor(base.postings());
        info.postings_processed = walk(cursor, idf);
      }
      info.utilization = static_cast<double>(info.postings_processed) /
                         static_cast<double>(df);
      index.record_utilization(t, info.utilization);
    }
    out.total_postings += info.postings_processed;
    out.terms.push_back(info);
  }

  // Extract the top-K through a bounded heap: O(n log k), no
  // intermediate full-size vector. The ranking order is total (ties
  // break on doc id), so the visit order of the touched docs is
  // irrelevant.
  TopKAccumulator top_docs(cfg_.top_k);
  for (const DocId d : acc_.touched()) {
    top_docs.push(ScoredDoc{d, acc_.score(d)});
  }
  out.result.docs = top_docs.take_sorted();
  out.cpu_time = cfg_.cpu_fixed +
                 cfg_.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

ScoreOutcome Scorer::score_analytic(const IndexView& index,
                                    const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  out.terms.reserve(query.terms.size());
  for (TermId t : query.terms) {
    const TermMeta meta = index.term_meta_fast(t);
    const auto processed = static_cast<std::uint64_t>(
        std::ceil(meta.utilization * static_cast<double>(meta.df)));
    out.terms.push_back(TermScoreInfo{t, processed, meta.utilization});
    out.total_postings += processed;
  }
  const std::uint64_t num_docs = index.num_docs();
  const std::size_t k = std::min<std::uint64_t>(cfg_.top_k, num_docs);
  out.result.docs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.result.docs.push_back(ScoredDoc{synth_doc(query.id, i, num_docs),
                                        static_cast<float>(k - i)});
  }
  out.cpu_time = cfg_.cpu_fixed +
                 cfg_.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

}  // namespace ssdse
