// Filtered-vector-model scoring with early termination (paper §VI,
// after Saraiva et al. SIGIR'01).
//
// Lists are frequency-sorted, so the scorer walks a prefix of each list
// and stops once further postings cannot change the top-K — "lists are
// almost always partially processed". The fraction actually walked *is*
// the utilization rate PU that drives partial-list caching (Formula 1).
//
// Two paths:
//  * materialized — real postings, real top-K, measured PU;
//  * analytic — postings_processed = PU × df from the statistical model,
//    synthetic (deterministic) top-K docs for cache-identity purposes.
//
// Under live churn (DESIGN.md §12) a dirty term is walked as a lazy
// merge of its frequency-sorted base list, read past tombstoned docs,
// and its few surviving live postings sorted into the same order: the
// walk still touches only the prefix early termination allows.
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/query.hpp"
#include "src/engine/result.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

struct ScorerConfig {
  std::size_t top_k = kTopK;
  /// Early termination: stop a list once its tf falls below this
  /// fraction of the list's max tf AND we already hold enough candidates.
  double tf_cutoff = 0.40;
  /// Candidate multiple required before termination can trigger.
  double candidate_multiple = 3.0;
  /// CPU cost per posting processed (ranking arithmetic + accumulator).
  Micros cpu_per_posting = micros(0.008);  // 8 ns
  /// Fixed per-query CPU overhead (parse, rank merge, snippets).
  Micros cpu_fixed = micros(300.0);
};

struct TermScoreInfo {
  TermId term{};
  std::uint64_t postings_processed = 0;
  double utilization = 1.0;  // processed / df
};

struct ScoreOutcome {
  ResultEntry result;
  std::vector<TermScoreInfo> terms;
  Micros cpu_time = micros(0);
  std::uint64_t total_postings = 0;
};

/// A Scorer owns per-query scratch (the score accumulator and the live
/// run), reused across calls, so one instance is not reentrant: score()
/// must not run concurrently on the same Scorer, const or not. Each
/// SearchSystem owns its own.
class Scorer {
 public:
  explicit Scorer(const ScorerConfig& cfg = {}) : cfg_(cfg) {}

  /// Score a query. For MaterializedIndex, also records measured
  /// utilizations back into the index (via record_utilization).
  ScoreOutcome score(IndexView& index, const Query& query) const;

  [[nodiscard]] const ScorerConfig& config() const { return cfg_; }

 private:
  /// Dense per-document score accumulator: a slot per doc id, valid only
  /// when its stamp equals the current query's generation, plus the list
  /// of docs touched this query. begin() is O(1), so there is no
  /// per-query hashing and no clearing of the whole table.
  class Accumulator {
   public:
    void begin(std::uint64_t num_docs);
    void add(DocId d, float s) {
      Slot& slot = slots_[d.raw()];
      if (slot.stamp != gen_) {
        slot = Slot{0.0f, gen_};
        touched_.push_back(d);
      }
      slot.score += s;
    }
    /// Distinct documents scored this query.
    [[nodiscard]] std::size_t size() const { return touched_.size(); }
    [[nodiscard]] const std::vector<DocId>& touched() const { return touched_; }
    [[nodiscard]] float score(DocId d) const { return slots_[d.raw()].score; }

   private:
    struct Slot {
      float score = 0.0f;
      std::uint32_t stamp = 0;
    };
    std::vector<Slot> slots_;
    std::vector<DocId> touched_;
    std::uint32_t gen_ = 0;
  };

  ScoreOutcome score_materialized(MaterializedIndex& index,
                                  const Query& query) const;
  ScoreOutcome score_analytic(const IndexView& index,
                              const Query& query) const;
  /// Walk one list's postings in (tf desc, doc asc) order until early
  /// termination; returns the number of postings processed.
  template <class Cursor>
  [[nodiscard]] std::size_t walk(Cursor& cursor, double idf) const;

  ScorerConfig cfg_;
  mutable Accumulator acc_;
  mutable std::vector<Posting> live_;  // one dirty term's live run
};

}  // namespace ssdse
