#include "src/engine/daat.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ssdse {

// --- DaatProcessor --------------------------------------------------------
//
// Bit-exactness contract between kBlockMax and kExhaustive (the oracle),
// relied on by the equivalence suites and layer_bench's block-max gate.
// The two modes share every line below except the bound check, so term
// order (size-ascending std::sort), score expressions (std::log(1.0 +
// tf) * idf, summed driver-first) and idf doubles agree by
// construction. What the check itself must guarantee:
//  * Pruning soundness: a range is leapt only when the heap holds k
//    docs AND the bound — per-term block max weight x idf, accumulated
//    in the same order as a real score — rounds to a float STRICTLY
//    below the heap's worst float score. Every term contribution is
//    <= its bound term in double (max over exact weights, monotone
//    rounding under x idf), and double addition is monotone per
//    partial sum, so any pruned doc's float score is <= float(bound)
//    < threshold: it could not have displaced anything, and ties (which
//    break by doc id) are unreachable because the compare is strict.
//  * Heap equality: the oracle pushes sub-threshold matches too, but
//    those pushes are no-ops on a full heap, so skipping them leaves
//    the heap state — and thus every later tie-break — unchanged.

const Posting& DaatProcessor::at(Cursor& c, std::uint32_t pos) {
  if (c.flat != nullptr) return c.flat[pos];
  const std::uint32_t b = pos / kBlockPostings;
  if (b != c.decoded) {
    c.view.decode_block(b, c.buf);
    c.decoded = b;
    ++pruning_.blocks_decoded;
  }
  return c.buf[pos % kBlockPostings];
}

std::uint32_t DaatProcessor::advance(Cursor& c, std::uint32_t from,
                                     DocId target,
                                     std::uint64_t* skip_hops) {
  if (from >= c.size) return c.size;
  if (c.flat != nullptr) {
    // Churn scratch: plain scan (the scratch list has no skip table).
    std::uint32_t pos = from;
    while (pos < c.size && c.flat[pos].doc < target) ++pos;
    return pos;
  }
  const std::uint32_t b = from / kBlockPostings;
  const std::uint32_t tb = c.view.find_block(b, target);
  if (tb >= c.view.num_blocks()) return c.size;
  std::uint32_t rel;
  if (tb != b) {
    if (skip_hops != nullptr) *skip_hops += tb - b;
    pruning_.blocks_skipped += tb - b - 1;  // blocks leapt, never decoded
    rel = 0;
  } else {
    rel = from % kBlockPostings;
  }
  if (tb != c.decoded) {
    c.view.decode_block(tb, c.buf);
    c.decoded = tb;
    ++pruning_.blocks_decoded;
  }
  // find_block guarantees this block's last doc id >= target, so the
  // scan terminates inside the block.
  while (c.buf[rel].doc < target) ++rel;
  return tb * kBlockPostings + rel;
}

ResultEntry DaatProcessor::intersect(const MaterializedIndex& index,
                                     const Query& query, DaatStats* stats) {
  ResultEntry out;
  out.query = query.id;
  if (query.terms.empty()) return out;

  const std::size_t n = query.terms.size();
  if (cursors_.size() < n) cursors_.resize(n);
  if (block_buf_.size() < n) block_buf_.resize(n);
  const LiveOverlay* overlay = index.overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs = static_cast<double>(index.num_docs());
  if (churned && scratch_.size() < n) scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TermId t = query.terms[i];
    Cursor& c = cursors_[i];
    block_buf_[i].resize(kBlockPostings);
    c.pos = 0;
    c.decoded = kNoBlock;
    c.shallow = 0;
    c.buf = block_buf_[i].data();
    if (churned && index.live_doc_sorted(t, scratch_[i])) {
      // Dirty term: its stored blocks (and their max weights) no longer
      // describe the current postings — bypass them entirely. The
      // re-materialized list gets an exact max weight computed here, so
      // pruning stays safe under churn.
      const std::vector<Posting>& s = scratch_[i];
      c.view = BlockPostingView();
      c.flat = s.data();
      c.size = static_cast<std::uint32_t>(s.size());
      c.idf =
          std::log(1.0 + n_docs / (static_cast<double>(s.size()) + 1.0));
      c.flat_max = 0.0;
      for (const Posting& p : s) {
        c.flat_max = std::max(c.flat_max, std::log(1.0 + p.tf));
      }
    } else {
      c.view = index.block_postings(t);
      c.flat = nullptr;
      c.size = c.view.size();
      // Clean term under churn: postings unchanged, but N counts the
      // live doc slots now — recompute the idf with the build-time
      // formula. (Zero churn: the stored idf IS this expression.)
      c.idf = churned ? std::log(1.0 + n_docs /
                                           (static_cast<double>(c.size) + 1.0))
                      : c.view.idf();
      c.flat_max = 0.0;
    }
  }
  order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return cursors_[a].size < cursors_[b].size;
            });
  Cursor& drv = cursors_[order_[0]];
  if (drv.size == 0) return out;

  top_docs_.reset(top_k_);
  std::uint64_t matched = 0, skip_hops = 0, touched = 0;
  const double driver_idf = drv.idf;
  constexpr DocId kMaxDoc = std::numeric_limits<DocId>::max();

  while (drv.pos < drv.size) {
    const Posting& dp = at(drv, drv.pos);
    const DocId candidate = dp.doc;

    if (mode_ == DaatMode::kBlockMax && top_docs_.full()) {
      // Bound the best possible score in [candidate, jump], where jump
      // is the nearest block end across all terms: within that range
      // every term's postings stay inside its current (aligned) block,
      // so the per-block max weights bound every contribution.
      bool exhausted = false;
      DocId jump;
      double ub;
      if (drv.flat != nullptr) {
        ub = drv.flat_max * driver_idf;
        jump = drv.flat[drv.size - 1].doc;
      } else {
        const PostingBlockMeta& m = drv.view.block(drv.pos / kBlockPostings);
        ub = m.max_weight * driver_idf;
        jump = m.last_doc;
      }
      for (std::size_t k = 1; k < n; ++k) {
        Cursor& c = cursors_[order_[k]];
        if (c.flat != nullptr) {
          if (c.flat[c.size - 1].doc < candidate) {
            exhausted = true;
            break;
          }
          ub += c.flat_max * c.idf;
          jump = std::min(jump, c.flat[c.size - 1].doc);
        } else {
          c.shallow = c.view.find_block(c.shallow, candidate);
          if (c.shallow >= c.view.num_blocks()) {
            exhausted = true;
            break;
          }
          const PostingBlockMeta& m = c.view.block(c.shallow);
          ub += m.max_weight * c.idf;
          jump = std::min(jump, m.last_doc);
        }
      }
      if (exhausted) break;  // some list has no postings >= candidate
      if (static_cast<float>(ub) < top_docs_.worst().score) {
        const std::uint32_t before = drv.pos;
        drv.pos = jump == kMaxDoc ? drv.size
                                  : advance(drv, drv.pos, jump + 1,
                                            &skip_hops);
        ++pruning_.prune_jumps;
        pruning_.postings_pruned += drv.pos - before;
        continue;
      }
    }

    ++touched;
    double score = std::log(1.0 + dp.tf) * driver_idf;
    bool all = true;
    DocId next_candidate = candidate + 1;
    for (std::size_t k = 1; k < n && all; ++k) {
      Cursor& c = cursors_[order_[k]];
      c.pos = advance(c, c.pos, candidate, &skip_hops);
      ++touched;
      if (c.pos >= c.size) {
        // This list is exhausted: no further candidate can match.
        drv.pos = drv.size;
        all = false;
        break;
      }
      const Posting& p = at(c, c.pos);
      if (p.doc != candidate) {
        next_candidate = p.doc;
        all = false;
      } else {
        score += std::log(1.0 + p.tf) * c.idf;
      }
    }
    if (drv.pos >= drv.size) break;
    if (all) {
      ++matched;
      top_docs_.push(ScoredDoc{candidate, static_cast<float>(score)});
      ++drv.pos;
    } else {
      drv.pos = advance(drv, drv.pos, next_candidate, &skip_hops);
    }
  }

  if (stats) {
    stats->docs_scored = matched;
    stats->postings_touched = touched;
    stats->skip_hops = skip_hops;
  }
  out.docs = top_docs_.take_sorted();
  return out;
}

}  // namespace ssdse
