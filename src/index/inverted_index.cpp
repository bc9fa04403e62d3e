#include "src/index/inverted_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/index/codec.hpp"

namespace ssdse {

AnalyticIndex::AnalyticIndex(const CorpusConfig& cfg) : model_(cfg) {
  std::vector<Bytes> sizes(model_.vocab_size());
  metas_.resize(model_.vocab_size());
  const double n_docs = static_cast<double>(model_.num_docs());
  for (TermId t{}; t.raw() < model_.vocab_size(); ++t) {
    sizes[t.raw()] = model_.list_bytes(t);
    const auto df = model_.df(t);
    metas_[t] = TermMeta{
        df, model_.list_bytes(t), model_.utilization(t),
        df ? std::log(1.0 + n_docs / static_cast<double>(df)) : 0.0};
  }
  layout_ = IndexLayout(sizes);
  register_meta_table(metas_.data(), metas_.size());
}

TermMeta AnalyticIndex::term_meta(TermId t) const {
  if (!metas_.contains(t)) {
    throw std::out_of_range("AnalyticIndex: term id out of range");
  }
  return metas_[t];
}

MaterializedIndex::MaterializedIndex(const MaterializedCorpus& corpus)
    : num_docs_(corpus.num_docs()), codec_name_(corpus.config().codec) {
  IdVector<TermId, std::vector<Posting>> raw(corpus.vocab_size());
  for (DocId d{}; d.raw() < corpus.num_docs(); ++d) {
    for (const auto& [term, tf] : corpus.doc(d)) {
      raw[term].push_back(Posting{d, tf});
    }
  }
  const CodecKind kind = codec_kind(corpus.config().codec);
  const auto codec = make_codec(corpus.config().codec);
  lists_.reserve(raw.size());
  metas_.reserve(raw.size());
  std::vector<Bytes> sizes;
  sizes.reserve(raw.size());
  std::size_t total_postings = 0;
  for (const auto& postings : raw) total_postings += postings.size();
  // The block store always exists (it is the doc-ordered copy the DAAT
  // engine reads); when the corpus codec itself is a block codec it
  // doubles as the on-disk size authority, so meta.list_bytes charges
  // the slice's actual encoded bytes.
  blocks_ = BlockPostingStore(is_block_codec(kind) ? kind
                                                   : CodecKind::kBlockPacked);
  blocks_.reserve(raw.size(), total_postings);
  const double n_docs = static_cast<double>(num_docs_);
  for (auto& postings : raw) {
    // Docs were visited in ascending order, so the raw list is already
    // doc-sorted: encode it before PostingList re-sorts by descending tf.
    const double daat_idf = std::log(
        1.0 + n_docs / (static_cast<double>(postings.size()) + 1.0));
    blocks_.add_list(postings, daat_idf);
    const double scoring_idf =
        postings.empty()
            ? 0.0
            : std::log(1.0 + n_docs / static_cast<double>(postings.size()));
    lists_.emplace_back(std::move(postings));
    const Bytes encoded =
        lists_.back().empty()
            ? 0
            : (is_block_codec(kind)
                   ? blocks_.term_bytes(TermId{static_cast<std::uint32_t>(blocks_.num_terms() - 1)})
                   : codec->encoded_bytes(lists_.back().postings()));
    metas_.push_back(TermMeta{lists_.back().size(),
                              std::max<Bytes>(encoded, 1),
                              /*utilization=*/1.0, scoring_idf});
    sizes.push_back(metas_.back().list_bytes);
  }
  layout_ = IndexLayout(sizes);
  pu_mean_.assign(lists_.size(), 1.0f);
  pu_samples_.assign(lists_.size(), 0);
  register_meta_table(metas_.data(), metas_.size());
}

TermMeta MaterializedIndex::term_meta(TermId t) const {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  return metas_[t];
}

bool MaterializedIndex::live_doc_sorted(TermId t,
                                        std::vector<Posting>& scratch) const {
  if (overlay_ == nullptr || !overlay_->term_dirty(t)) return false;
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  scratch.clear();
  blocks_.view(t).decode_all(scratch);
  std::erase_if(scratch, [this](const Posting& p) {
    return overlay_->is_deleted(p.doc);
  });
  // Live ids are all >= base_docs() and the segment stores them
  // doc-ascending, so appending preserves doc order.
  overlay_->collect_live(t, scratch);
  return true;
}

void MaterializedIndex::rebuild_lists(
    std::uint64_t new_num_docs,
    const std::vector<std::pair<TermId, std::vector<Posting>>>&
        replacements) {
  const double n_docs = static_cast<double>(new_num_docs);
  const std::size_t vocab = lists_.size();
  std::size_t total = blocks_.total_postings();
  for (const auto& [t, repl] : replacements) {
    total += repl.size();
    total -= blocks_.view(t).size();
  }
  // Block slices are contiguous and index-ordered, so a churned term in
  // the middle cannot be patched in place: the store is rebuilt in one
  // pass. Churned terms are encoded from their replacement postings
  // (fresh block maxima, so no stale bound survives the merge); every
  // other term's slice is copied verbatim under the refreshed idf. The
  // frequency-sorted lists and metas are per-term and ARE patched in
  // place — metas_ never reallocates, keeping the registered meta table
  // valid.
  BlockPostingStore fresh_blocks(blocks_.kind());
  fresh_blocks.reserve(vocab, total);
  const CodecKind kind = codec_kind(codec_name_);
  const auto codec = make_codec(codec_name_);
  std::vector<Bytes> sizes(vocab);
  std::size_t r = 0;
  for (TermId t{}; t.raw() < vocab; ++t) {
    if (r < replacements.size() && replacements[r].first == t) {
      const std::vector<Posting>& repl = replacements[r].second;
      ++r;
      fresh_blocks.add_list(
          repl, std::log(1.0 + n_docs /
                                   (static_cast<double>(repl.size()) + 1.0)));
      lists_[t] = PostingList(repl);
      const Bytes encoded =
          lists_[t].empty()
              ? 0
              : (is_block_codec(kind)
                     ? fresh_blocks.term_bytes(t)
                     : codec->encoded_bytes(lists_[t].postings()));
      metas_[t].df = lists_[t].size();
      metas_[t].list_bytes = std::max<Bytes>(encoded, 1);
      metas_[t].utilization = 1.0;
      pu_mean_[t] = 1.0f;
      pu_samples_[t] = 0;
    } else {
      const BlockPostingView v = blocks_.view(t);
      fresh_blocks.add_encoded(
          v, std::log(1.0 + n_docs / (static_cast<double>(v.size()) + 1.0)));
    }
    // N changed for everyone: refresh the scoring idf of every term.
    metas_[t].idf =
        metas_[t].df == 0
            ? 0.0
            : std::log(1.0 + n_docs / static_cast<double>(metas_[t].df));
    sizes[t.raw()] = metas_[t].list_bytes;
  }
  num_docs_ = new_num_docs;
  blocks_ = std::move(fresh_blocks);
  layout_ = IndexLayout(sizes);
}

void MaterializedIndex::record_utilization(TermId t, double pu) {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  const auto n = ++pu_samples_[t];
  // Running mean; first sample replaces the optimistic 1.0 default.
  // Accumulated in float (as the pre-table implementation did), then
  // mirrored into the meta table the hot path reads.
  if (n == 1) {
    pu_mean_[t] = static_cast<float>(pu);
  } else {
    pu_mean_[t] += (static_cast<float>(pu) - pu_mean_[t]) /
                   static_cast<float>(n);
  }
  metas_[t].utilization = static_cast<double>(pu_mean_[t]);
}

}  // namespace ssdse
