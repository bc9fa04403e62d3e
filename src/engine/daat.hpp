// Document-at-a-time (DAAT) conjunctive query processing with skip
// pointers — the Lucene-style mechanism behind the paper's "skipped
// reads" (§III): doc-id-ordered lists are intersected by repeatedly
// advancing the laggard cursor, and skip entries let advance() leap over
// runs of postings instead of scanning them.
//
// One processor (DESIGN.md §8, §13) runs over the index's compressed
// posting blocks, whose per-block last doc ids are the skip table and
// whose per-block max weights bound scores. DaatMode picks whether it
// prunes:
//  * kExhaustive — evaluates every candidate; the bit-exact oracle whose
//    DaatStats feed the pinned layer_bench daat fingerprint;
//  * kBlockMax   — block-max WAND/MaxScore hybrid: leaps candidate
//    ranges whose summed per-block score upper bound cannot enter the
//    full top-K heap. Returns bit-identical top-K to kExhaustive by
//    construction (see the invariant notes at the implementation).
// The seed's copy-and-sort reference lives in tests/reference_daat.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/query.hpp"
#include "src/engine/result.hpp"
#include "src/engine/top_k.hpp"
#include "src/index/block_postings.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

/// Whether DaatProcessor prunes. The exhaustive mode stays the default
/// everywhere a fingerprint is pinned: its DaatStats feed those
/// fingerprints, and pruning legitimately changes the stats (never the
/// top-K).
enum class DaatMode : std::uint8_t { kExhaustive, kBlockMax };

struct DaatStats {
  std::uint64_t docs_scored = 0;     // documents containing all terms
  std::uint64_t postings_touched = 0;
  std::uint64_t skip_hops = 0;       // posting blocks leapt by advance()
};

/// Cumulative block-max pruning observability (registry counters
/// `daat.pruning.*`). Counts accumulate across queries on purpose: the
/// registry reads them as monotone counters.
struct PruningStats {
  std::uint64_t blocks_decoded = 0;  // blocks actually unpacked
  std::uint64_t blocks_skipped = 0;  // blocks leapt via metadata alone
  std::uint64_t prune_jumps = 0;     // candidate ranges leapt on bound
  std::uint64_t postings_pruned = 0; // driver postings never evaluated
};

/// Conjunctive (AND) top-K over the index's compressed posting blocks:
/// returns documents containing *every* query term, scored by summed
/// log-tf x idf, descending. The shortest list drives; the others
/// advance to each candidate via their block skip tables, decoding only
/// the blocks they land in. Scratch buffers are reused across queries,
/// so intersect() is allocation-free apart from the returned top-K.
///
/// In kBlockMax mode, once the top-K heap is full each candidate is
/// preceded by a bound check — the sum over query terms of (current
/// block's max weight x idf), accumulated in the exact float order the
/// real score would be. If even that bound rounds below the heap's
/// worst score, no document up to the nearest block boundary can enter
/// the heap, and the driver leaps the whole range. kExhaustive skips
/// the check and nothing else.
///
/// Overlay-aware: dirty terms bypass their stale blocks and are
/// re-materialized into scratch with an exact, freshly computed max
/// weight, so pruning stays safe under churn.
/// Not thread-safe: use one processor per worker thread.
class DaatProcessor {
 public:
  explicit DaatProcessor(std::size_t top_k = kTopK,
                         DaatMode mode = DaatMode::kExhaustive)
      : top_k_(top_k), mode_(mode) {}

  /// Requires a materialized index (compressed blocks are built with
  /// it).
  ResultEntry intersect(const MaterializedIndex& index, const Query& query,
                        DaatStats* stats = nullptr);

  [[nodiscard]] const PruningStats& pruning() const { return pruning_; }

 private:
  /// Per-term state over either a compressed block view (flat ==
  /// nullptr) or churn-path scratch postings (flat set, view unused).
  struct Cursor {
    BlockPostingView view;
    const Posting* flat = nullptr;
    std::uint32_t size = 0;
    std::uint32_t pos = 0;      // absolute posting index
    std::uint32_t decoded = 0;  // block currently in buf (kNoBlock: none)
    std::uint32_t shallow = 0;  // block aligned by bound checks only
    double idf = 0.0;
    double flat_max = 0.0;      // scratch path: exact max weight
    Posting* buf = nullptr;     // per-term slot in the decode scratch
  };

  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  const Posting& at(Cursor& c, std::uint32_t pos);
  std::uint32_t advance(Cursor& c, std::uint32_t from, DocId target,
                        std::uint64_t* skip_hops);

  std::size_t top_k_;
  DaatMode mode_;
  // Scratch reused across queries.
  std::vector<Cursor> cursors_;
  std::vector<std::uint32_t> order_;
  std::vector<std::vector<Posting>> scratch_;    // churn-path postings
  std::vector<std::vector<Posting>> block_buf_;  // per-term decode buffers
  TopKAccumulator top_docs_;
  PruningStats pruning_;
};

}  // namespace ssdse
