// Served Scorer vs the rebuild-and-resort reference
// (tests/reference_scorer.hpp) under live churn (DESIGN.md §12).
//
// The served scorer walks a dirty term as a lazy merge of its
// frequency-sorted base list (tombstones skipped) and its sorted live
// run, with df taken from LiveOverlay::df_delta. The reference
// materializes and re-sorts the whole list. Both must agree bit-for-bit
// on everything a query produces: result doc ids and score bits,
// per-term postings_processed and utilization, cpu_time, and the PU
// table recorded back into the index. Each side scores its own copy of
// the index (same corpus, same churn), so the PU tables evolve
// independently and can be compared after every phase.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/scorer.hpp"
#include "src/ingest/live_index.hpp"
#include "src/util/rng.hpp"
#include "tests/reference_scorer.hpp"

namespace ssdse {
namespace {

using ingest::DocBag;

/// A term no base document contains (stripped from the generated
/// corpus): live-only scoring with an empty base list.
constexpr TermId kStrippedTerm{5};

CorpusConfig corpus_config() {
  CorpusConfig cc;
  cc.num_docs = 6'000;
  cc.vocab_size = 500;
  cc.terms_per_doc = 15;
  // Lists long enough (up to 600 postings) that early termination,
  // which needs candidate_multiple * top_k = 150 candidates, triggers
  // on single-term queries too.
  cc.max_df_fraction = 0.1;
  cc.seed = 23;
  return cc;
}

MaterializedCorpus make_corpus() {
  const CorpusConfig cc = corpus_config();
  Rng rng(cc.seed);
  const MaterializedCorpus generated(cc, rng);
  std::vector<DocBag> docs;
  docs.reserve(generated.num_docs());
  for (DocId d{}; d.raw() < generated.num_docs(); ++d) {
    DocBag bag = generated.doc(d);
    std::erase_if(bag, [](const auto& e) { return e.first == kStrippedTerm; });
    docs.push_back(std::move(bag));
  }
  return MaterializedCorpus(cc, std::move(docs));
}

DocBag make_bag(Rng& rng, std::uint32_t vocab, std::size_t terms) {
  DocBag bag;
  while (bag.size() < terms) {
    const auto t = static_cast<TermId>(rng.next_below(vocab));
    bool dup = false;
    for (const auto& [bt, tf] : bag) dup |= bt == t;
    if (!dup) {
      bag.emplace_back(t, 1 + static_cast<std::uint32_t>(rng.next_below(6)));
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

/// One materialized index with its live overlay. Merges are driven
/// explicitly by the test, never by size triggers.
struct Stack {
  MaterializedIndex index;
  ingest::LiveIndex live;

  explicit Stack(const MaterializedCorpus& corpus)
      : index(corpus), live(index, corpus, IngestConfig{}) {
    index.attach_overlay(&live);
  }
  ~Stack() { index.attach_overlay(nullptr); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

class ScorerEquivalenceTest : public ::testing::Test {
 protected:
  ScorerEquivalenceTest()
      : corpus_(make_corpus()), served_(corpus_), reference_(corpus_) {}

  DocId ingest(const DocBag& bag) {
    const DocId a = served_.live.ingest(bag);
    const DocId b = reference_.live.ingest(bag);
    EXPECT_EQ(a, b);
    return a;
  }

  bool erase(DocId d) {
    const bool a = served_.live.erase(d, nullptr);
    const bool b = reference_.live.erase(d, nullptr);
    EXPECT_EQ(a, b);
    return a;
  }

  void merge() {
    (void)served_.live.merge();
    (void)reference_.live.merge();
  }

  /// Score `q` on both sides and compare every output bit for bit.
  /// Returns the served outcome for further precondition checks.
  ScoreOutcome check(const Query& q, const std::string& ctx) {
    const ScoreOutcome got = scorer_.score(served_.index, q);
    const ScoreOutcome want =
        reference_score(scorer_.config(), reference_.index, q);
    const std::string where = ctx + " query " + std::to_string(q.id.raw());
    EXPECT_EQ(got.result.query, want.result.query) << where;
    EXPECT_EQ(got.result.docs.size(), want.result.docs.size()) << where;
    const std::size_t n =
        std::min(got.result.docs.size(), want.result.docs.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got.result.docs[i].doc, want.result.docs[i].doc)
          << where << " rank " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.result.docs[i].score),
                std::bit_cast<std::uint32_t>(want.result.docs[i].score))
          << where << " rank " << i;
    }
    EXPECT_EQ(got.terms.size(), want.terms.size()) << where;
    for (std::size_t i = 0; i < std::min(got.terms.size(), want.terms.size());
         ++i) {
      EXPECT_EQ(got.terms[i].term, want.terms[i].term) << where;
      EXPECT_EQ(got.terms[i].postings_processed,
                want.terms[i].postings_processed)
          << where << " term " << got.terms[i].term.raw();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.terms[i].utilization),
                std::bit_cast<std::uint64_t>(want.terms[i].utilization))
          << where << " term " << got.terms[i].term.raw();
    }
    EXPECT_EQ(got.total_postings, want.total_postings) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cpu_time.value()),
              std::bit_cast<std::uint64_t>(want.cpu_time.value()))
        << where;
    return got;
  }

  /// The running-mean PU recorded back into each index.
  void expect_same_pu_table(const std::string& ctx) const {
    for (TermId t{}; t.raw() < served_.index.vocab_size(); ++t) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(served_.index.term_meta(t).utilization),
          std::bit_cast<std::uint64_t>(
              reference_.index.term_meta(t).utilization))
          << ctx << " term " << t.raw();
    }
  }

  /// `n` queries of 1-4 terms drawn with replacement (so some repeat a
  /// term); half the terms come from `hot`, the terms churn touched.
  void run_queries(Rng& rng, const std::vector<TermId>& hot, std::size_t n,
                   const std::string& ctx) {
    const std::uint32_t vocab = served_.index.vocab_size();
    for (std::size_t i = 0; i < n; ++i) {
      Query q{QueryId{next_query_++}, {}};
      const std::size_t terms = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < terms; ++j) {
        const bool from_hot = !hot.empty() && rng.next_below(2) == 0;
        q.terms.push_back(from_hot ? hot[rng.next_below(hot.size())]
                                   : static_cast<TermId>(
                                         rng.next_below(vocab)));
      }
      for (const TermScoreInfo& info : check(q, ctx).terms) {
        if (info.utilization < 1.0) ++partial_walks_;
      }
    }
    expect_same_pu_table(ctx);
  }

  Query query(std::vector<TermId> terms) {
    return Query{QueryId{next_query_++}, std::move(terms)};
  }

  /// The term with the shortest non-empty base list.
  [[nodiscard]] TermId rarest_term() const {
    TermId best{};
    std::size_t best_df = 0;
    for (TermId t{}; t.raw() < served_.index.vocab_size(); ++t) {
      const std::size_t df = served_.index.postings(t)->size();
      if (df > 0 && (best_df == 0 || df < best_df)) {
        best = t;
        best_df = df;
      }
    }
    return best;
  }

  /// A term whose base list holds at least `min_df` postings.
  [[nodiscard]] TermId term_with_df(std::size_t min_df) const {
    for (TermId t{}; t.raw() < served_.index.vocab_size(); ++t) {
      if (served_.index.postings(t)->size() >= min_df) return t;
    }
    ADD_FAILURE() << "no term with df >= " << min_df;
    return TermId{};
  }

  MaterializedCorpus corpus_;
  Stack served_;
  Stack reference_;
  Scorer scorer_;
  std::uint64_t next_query_ = 0;
  /// Terms whose walk early termination cut short.
  std::uint64_t partial_walks_ = 0;
};

TEST_F(ScorerEquivalenceTest, SeededChurnPhasesMatchReference) {
  const std::uint32_t vocab = served_.index.vocab_size();
  Rng churn_rng(71), query_rng(72);
  // Clean overlay first: the zero-churn path.
  run_queries(query_rng, {}, 1'000, "clean");
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<TermId> hot;
    for (int i = 0; i < 80; ++i) {
      const DocBag bag = make_bag(churn_rng, vocab, 10);
      for (const auto& [t, tf] : bag) hot.push_back(t);
      const DocId id = ingest(bag);
      if (i % 3 == 0) {
        // Base and live victims alike (misses are fine).
        (void)erase(static_cast<DocId>(
            churn_rng.next_below(served_.index.num_docs())));
      }
      if (i % 10 == 9) (void)erase(id);  // tombstone inside the segment
    }
    ASSERT_FALSE(served_.live.clean());
    const std::string mid =
        "cycle " + std::to_string(cycle) + " mid-segment";
    run_queries(query_rng, hot, 1'000, mid);
    merge();
    ASSERT_TRUE(served_.live.clean());
    const std::string post = "cycle " + std::to_string(cycle) + " post-merge";
    run_queries(query_rng, hot, 1'000, post);
  }
  // The streams exercise early termination, not just full walks.
  EXPECT_GT(partial_walks_, 1'000u);
}

TEST_F(ScorerEquivalenceTest, EveryBasePostingTombstoned) {
  const TermId t = rarest_term();
  const TermId other = term_with_df(60);
  for (const Posting& p : served_.index.postings(t)->postings()) {
    ASSERT_TRUE(erase(p.doc));
  }
  ASSERT_EQ(served_.live.df_delta(t),
            -static_cast<std::int64_t>(served_.index.postings(t)->size()));
  const ScoreOutcome gone = check(query({t}), "all tombstoned");
  EXPECT_EQ(gone.terms[0].postings_processed, 0u);
  EXPECT_TRUE(gone.result.docs.empty());
  check(query({other, t}), "all tombstoned + other");

  // A live posting arrives: the term's list is now live-only.
  const DocId d = ingest({{t, 2}});
  const ScoreOutcome revived = check(query({t}), "tombstoned base + live");
  ASSERT_EQ(revived.result.docs.size(), 1u);
  EXPECT_EQ(revived.result.docs[0].doc, d);
  expect_same_pu_table("all tombstoned");
}

TEST_F(ScorerEquivalenceTest, LiveOnlyTermWithEmptyBaseList) {
  ASSERT_TRUE(served_.index.postings(kStrippedTerm)->empty());
  const TermId other = term_with_df(60);
  (void)ingest({{other, 1}});  // churned, but the term is still empty
  check(query({kStrippedTerm}), "empty everywhere");
  Rng rng(81);
  for (int i = 0; i < 40; ++i) {
    (void)ingest({{kStrippedTerm, 1 + static_cast<std::uint32_t>(
                                      rng.next_below(6))}});
  }
  const ScoreOutcome got = check(query({kStrippedTerm}), "live-only");
  EXPECT_GT(got.terms[0].postings_processed, 0u);
  check(query({kStrippedTerm, other}), "live-only + other");
  merge();
  check(query({kStrippedTerm}), "live-only post-merge");
  expect_same_pu_table("live-only");
}

TEST_F(ScorerEquivalenceTest, TombstonedLiveDocStillInSegment) {
  const TermId t = term_with_df(30);
  // A tf far above the base list's: it would rank first if it counted.
  const DocId d = ingest({{t, 1'000}});
  (void)ingest({{t, 1}});
  ASSERT_TRUE(erase(d));
  ASSERT_EQ(served_.live.segment().count(t), 2u);  // still in the segment
  const ScoreOutcome got = check(query({t}), "tombstoned live doc");
  for (const ScoredDoc& sd : got.result.docs) EXPECT_NE(sd.doc, d);
  expect_same_pu_table("tombstoned live doc");
}

TEST_F(ScorerEquivalenceTest, EqualTfAcrossBaseLiveBoundary) {
  const TermId t = term_with_df(30);
  const PostingList& base = *served_.index.postings(t);
  const std::uint32_t top = base[0].tf;
  // Live docs tied with the base list's top tf, and with a mid-list tf:
  // doc id order (base ids first) must decide, as in a full re-sort.
  (void)ingest({{t, top}});
  (void)ingest({{t, top}});
  (void)ingest({{t, base[base.size() / 2].tf}});
  // Tombstone one of the tied base postings too.
  ASSERT_TRUE(erase(base[0].doc));
  const ScoreOutcome got = check(query({t}), "tf tie");
  EXPECT_GE(got.terms[0].postings_processed, 3u);
  expect_same_pu_table("tf tie");
}

TEST_F(ScorerEquivalenceTest, EarlyTerminationCutsATieRun) {
  // Find a list whose early-termination cut falls inside a tf run: the
  // postings just before and at the cut share a tf. A live posting with
  // that tf belongs after every base posting of the run (its doc id is
  // larger), so it must stay unprocessed; merging it ahead of the base
  // postings would score it.
  const ScorerConfig& cfg = scorer_.config();
  const auto needed = static_cast<std::size_t>(
      cfg.candidate_multiple * static_cast<double>(cfg.top_k));
  TermId a{};
  std::size_t cut = 0;
  for (TermId t{}; t.raw() < served_.index.vocab_size() && cut == 0; ++t) {
    const PostingList& list = *served_.index.postings(t);
    if (list.size() <= needed + 1) continue;
    const auto floor = static_cast<std::uint32_t>(
        std::ceil(cfg.tf_cutoff * static_cast<double>(list[0].tf)));
    std::size_t i = needed;
    while (i < list.size() && list[i].tf >= floor) ++i;
    if (i < list.size() && list[i - 1].tf == list[i].tf) {
      a = t;
      cut = i;
    }
  }
  ASSERT_GT(cut, 0u) << "no list is cut inside a tf run";
  const std::uint32_t tie = (*served_.index.postings(a))[cut].tf;
  // The live doc also holds the rarest term at a tf far above that
  // list's, so it ranks first on it and its score is in the top-K.
  const TermId b = rarest_term();
  ASSERT_NE(a, b);
  DocBag bag{{a, tie}, {b, 1'000}};
  std::sort(bag.begin(), bag.end());
  const DocId d = ingest(bag);
  const ScoreOutcome got = check(query({a, b}), "tie run cut");
  EXPECT_EQ(got.terms[0].postings_processed, cut);
  ASSERT_FALSE(got.result.docs.empty());
  EXPECT_EQ(got.result.docs[0].doc, d);
  expect_same_pu_table("tie run cut");
}

TEST_F(ScorerEquivalenceTest, QueryRepeatingATerm) {
  const TermId t = term_with_df(30);
  const TermId u = rarest_term();
  (void)ingest({{t, 3}, {u, 2}});
  (void)erase(served_.index.postings(t)->postings()[1].doc);
  check(query({t, t}), "repeat");
  check(query({t, u, t}), "repeat with other");
  merge();
  check(query({u, u, u}), "repeat post-merge");
  expect_same_pu_table("repeat");
}

}  // namespace
}  // namespace ssdse
