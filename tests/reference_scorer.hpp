// Test-only reference for Scorer's materialized path: the
// rebuild-and-resort algorithm the served scorer replaced. For every
// dirty term it materializes the term's whole current list (base arena
// minus tombstones, plus surviving live postings) through
// MaterializedIndex::live_doc_sorted, re-sorts it into a PostingList,
// and accumulates scores in a hash map. It is O(df log df) per dirty
// term and per query, which is why it is not served; its value is that
// it is obviously correct, so the served lazy merge is checked against
// it bit-for-bit (scorer_equivalence_test).
#pragma once

#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/engine/scorer.hpp"
#include "src/engine/top_k.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

/// Scores `query` exactly as Scorer::score does on a MaterializedIndex,
/// including recording the measured utilizations back into `index`.
inline ScoreOutcome reference_score(const ScorerConfig& cfg,
                                    MaterializedIndex& index,
                                    const Query& query) {
  ScoreOutcome out;
  out.result.query = query.id;
  out.terms.reserve(query.terms.size());
  std::unordered_map<DocId, float> acc;

  const LiveOverlay* overlay = index.overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs =
      churned ? static_cast<double>(index.num_docs()) : 0.0;
  std::vector<Posting> live;

  for (TermId t : query.terms) {
    std::optional<PostingList> live_list;
    if (churned && index.live_doc_sorted(t, live)) {
      live_list.emplace(live);  // re-sorts (tf desc, doc asc)
    }
    const PostingList& list = live_list ? *live_list : *index.postings(t);
    TermScoreInfo info{t, 0, 1.0};
    if (!list.empty()) {
      const double idf =
          churned
              ? std::log(1.0 + n_docs / static_cast<double>(list.size()))
              : index.term_meta_fast(t).idf;
      const auto tf_top = list[0].tf;
      const auto tf_floor = static_cast<std::uint32_t>(
          std::ceil(cfg.tf_cutoff * static_cast<double>(tf_top)));
      const auto needed_candidates = static_cast<std::size_t>(
          cfg.candidate_multiple * static_cast<double>(cfg.top_k));
      std::size_t i = 0;
      for (; i < list.size(); ++i) {
        const Posting& p = list[i];
        if (p.tf < tf_floor && acc.size() >= needed_candidates) break;
        acc[p.doc] += static_cast<float>(std::log(1.0 + p.tf) * idf);
      }
      info.postings_processed = i;
      info.utilization =
          static_cast<double>(i) / static_cast<double>(list.size());
      index.record_utilization(t, info.utilization);
    }
    out.total_postings += info.postings_processed;
    out.terms.push_back(info);
  }

  // TopKAccumulator imposes a total order (ties break on doc id), so
  // the map's visit order is irrelevant.
  TopKAccumulator top_docs(cfg.top_k);
  for (const auto& [doc, s] : acc) top_docs.push(ScoredDoc{doc, s});
  out.result.docs = top_docs.take_sorted();
  out.cpu_time = cfg.cpu_fixed +
                 cfg.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

}  // namespace ssdse
