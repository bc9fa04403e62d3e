// DAAT conjunctive processing tests: the reference DocSortedList's
// advance() semantics, skip usage, and intersection correctness against
// a brute-force oracle.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/util/rng.hpp"
#include "tests/reference_daat.hpp"

namespace ssdse {
namespace {

PostingList make_list(std::vector<DocId> docs, std::uint32_t tf = 5) {
  std::vector<Posting> p;
  p.reserve(docs.size());
  for (DocId d : docs) p.push_back(Posting{d, tf});
  return PostingList(std::move(p));
}

// --- DocSortedList -----------------------------------------------------

TEST(DocSortedListTest, SortsByDocId) {
  DocSortedList list(make_list({DocId{50}, DocId{3}, DocId{20}, DocId{7}}));
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].doc.raw(), 3u);
  EXPECT_EQ(list[3].doc, DocId{50});
}

TEST(DocSortedListTest, AdvanceFindsFirstAtLeastTarget) {
  DocSortedList list(make_list({DocId{10}, DocId{20}, DocId{30}, DocId{40}, DocId{50}}));
  EXPECT_EQ(list.advance(0, DocId{25}), 2u);   // -> doc 30
  EXPECT_EQ(list.advance(0, DocId{30}), 2u);   // exact
  EXPECT_EQ(list.advance(0, DocId{5}), 0u);    // already positioned
  EXPECT_EQ(list.advance(3, DocId{35}), 3u);   // from later cursor
  EXPECT_EQ(list.advance(0, DocId{100}), 5u);  // exhausted
  EXPECT_EQ(list.advance(5, DocId{10}), 5u);   // from end stays at end
}

TEST(DocSortedListTest, AdvanceNeverMovesBackwards) {
  Rng rng(7);
  std::vector<DocId> docs;
  for (int i = 0; i < 5000; ++i) {
    docs.push_back(static_cast<DocId>(rng.next_below(100'000)));
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  DocSortedList list(make_list(docs));
  std::size_t pos = 0;
  for (int i = 0; i < 500; ++i) {
    const DocId target = static_cast<DocId>(rng.next_below(100'000));
    const std::size_t next = list.advance(pos, target);
    EXPECT_GE(next, pos);
    if (next < list.size()) {
      EXPECT_GE(list[next].doc, target);
      if (next > 0 && list[next].doc > target && next > pos) {
        EXPECT_LT(list[next - 1].doc, target);
      }
    }
    if (target >= (pos < list.size() ? list[pos].doc : DocId{})) pos = next;
    if (pos >= list.size()) pos = 0;
  }
}

// --- DaatProcessor ------------------------------------------------------------

CorpusConfig daat_corpus() {
  CorpusConfig cfg;
  cfg.num_docs = 3'000;
  cfg.vocab_size = 120;
  cfg.terms_per_doc = 20;
  cfg.max_df_fraction = 0.5;  // dense lists: intersections non-empty
  return cfg;
}

class DaatTest : public ::testing::Test {
 protected:
  DaatTest() : rng_(55), corpus_(daat_corpus(), rng_), index_(corpus_) {}

  /// Brute-force oracle: docs containing every term.
  std::set<DocId> oracle(const std::vector<TermId>& terms) {
    std::set<DocId> acc;
    bool first = true;
    for (TermId t : terms) {
      std::set<DocId> docs;
      for (const Posting& p : index_.postings(t)->postings()) {
        docs.insert(p.doc);
      }
      if (first) {
        acc = std::move(docs);
        first = false;
      } else {
        std::set<DocId> merged;
        std::set_intersection(acc.begin(), acc.end(), docs.begin(),
                              docs.end(),
                              std::inserter(merged, merged.begin()));
        acc = std::move(merged);
      }
    }
    return acc;
  }

  Rng rng_;
  MaterializedCorpus corpus_;
  MaterializedIndex index_;
};

TEST_F(DaatTest, MatchesBruteForceIntersection) {
  DaatProcessor daat(/*top_k=*/100'000);  // keep every match
  for (QueryId qid{}; qid < QueryId{20}; ++qid) {
    Query q{qid, {TermId{static_cast<std::uint32_t>(qid.raw() % 40)},
                  TermId{static_cast<std::uint32_t>(40 + qid.raw() % 40)}}};
    DaatStats stats;
    const ResultEntry result = daat.intersect(index_, q, &stats);
    const auto expected = oracle(q.terms);
    ASSERT_EQ(result.docs.size(), expected.size()) << "query " << qid.raw();
    for (const ScoredDoc& d : result.docs) {
      EXPECT_TRUE(expected.count(d.doc)) << d.doc.raw();
    }
    EXPECT_EQ(stats.docs_scored, expected.size());
  }
}

TEST_F(DaatTest, ThreeTermIntersection) {
  DaatProcessor daat(100'000);
  Query q{QueryId{1}, {TermId{0}, TermId{1}, TermId{2}}};
  const auto result = daat.intersect(index_, q);
  const auto expected = oracle(q.terms);
  EXPECT_EQ(result.docs.size(), expected.size());
}

TEST_F(DaatTest, ScoresDescending) {
  DaatProcessor daat(50);
  Query q{QueryId{2}, {TermId{0}, TermId{1}}};
  const auto result = daat.intersect(index_, q);
  for (std::size_t i = 1; i < result.docs.size(); ++i) {
    EXPECT_GE(result.docs[i - 1].score, result.docs[i].score);
  }
}

TEST_F(DaatTest, TopKBoundsOutput) {
  DaatProcessor daat(5);
  Query q{QueryId{3}, {TermId{0}, TermId{1}}};
  const auto result = daat.intersect(index_, q);
  EXPECT_LE(result.docs.size(), 5u);
}

TEST_F(DaatTest, EmptyQueryAndMissingTerm) {
  DaatProcessor daat;
  EXPECT_TRUE(daat.intersect(index_, Query{QueryId{4}, {}}).docs.empty());
}

TEST_F(DaatTest, SkipHopsObservedOnSelectiveQueries) {
  // Intersecting a rare term with a dense one forces long advances in
  // the dense list — the "skipped reads" of paper SSIII.
  TermId rare = TermId{0}, dense = TermId{0};
  std::size_t min_df = ~0ull, max_df = 0;
  for (TermId t{}; t < TermId{index_.vocab_size()}; ++t) {
    const auto df = index_.postings(t)->size();
    if (df > 0 && df < min_df) {
      min_df = df;
      rare = t;
    }
    if (df > max_df) {
      max_df = df;
      dense = t;
    }
  }
  ASSERT_NE(rare, dense);
  DaatProcessor daat(100'000);
  DaatStats stats;
  daat.intersect(index_, Query{QueryId{5}, {rare, dense}}, &stats);
  // Far fewer postings touched than the dense list holds, and the dense
  // list's cursor leapt whole blocks via their skip entries.
  EXPECT_LT(stats.postings_touched, max_df);
  EXPECT_GT(stats.skip_hops, 0u);
}

}  // namespace
}  // namespace ssdse
