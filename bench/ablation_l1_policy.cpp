// Ablation: L1 replacement policy on the term-access stream — plain LRU
// vs ARC (adaptive, workload-oblivious) vs the paper's EV-window scheme
// (domain-aware: list sizes + utilization). Entry-count capacities so
// the three are directly comparable on the same stream.
#include "bench/bench_common.hpp"
#include "src/cache/arc_cache.hpp"
#include "src/cache/mem_list_cache.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/workload/log_analysis.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

struct LruRef {
  explicit LruRef(std::size_t cap) : capacity(cap) {}
  bool access(TermId key) {
    if (map.touch(key) != nullptr) return true;
    map.insert(key, true);
    if (map.size() > capacity) map.pop_lru();
    return false;
  }
  std::size_t capacity;
  FlatLruMap<TermId, bool> map;
};

}  // namespace

int main() {
  print_environment("Ablation — L1 list replacement: LRU vs ARC vs EV");
  const auto queries = default_queries(60'000);

  SystemConfig sys = paper_system(CachePolicy::kCblru);
  AnalyticIndex index(sys.corpus);
  QueryLogGenerator gen(sys.log);

  Table t({"capacity (entries)", "LRU", "ARC", "EV-window (paper)"});
  for (std::size_t cap : {256u, 1024u, 4096u, 16384u}) {
    LruRef lru(cap);
    ArcCache<TermId> arc(cap);
    // The paper's memory scheme, entry-count capacity emulated via a
    // large byte budget and uniform entry sizes.
    MemListCache ev(cap * KiB, CachePolicy::kCblru, /*W=*/8);

    std::uint64_t lru_hits = 0, arc_hits = 0, ev_hits = 0, refs = 0;
    QueryLogGenerator stream(sys.log);
    for (std::uint64_t i = 0; i < queries; ++i) {
      for (TermId term : stream.next().terms) {
        ++refs;
        lru_hits += lru.access(term);
        arc_hits += arc.access(term);
        if (ev.lookup(term, 1) != nullptr) {
          ++ev_hits;
        } else {
          const TermMeta meta = index.term_meta(term);
          CachedList info;
          info.cached_bytes = 1 * KiB;  // uniform entries
          info.full_bytes = meta.list_bytes;
          info.utilization = meta.utilization;
          info.freq = 1;
          info.sc_blocks =
              formula_sc_blocks(meta.list_bytes, meta.utilization, 128 * KiB);
          info.ev = formula_ev(1, info.sc_blocks);
          ev.insert(term, info);
        }
      }
    }
    const double n = static_cast<double>(refs);
    t.add_row({Table::integer(static_cast<long long>(cap)),
               Table::percent(static_cast<double>(lru_hits) / n),
               Table::percent(static_cast<double>(arc_hits) / n),
               Table::percent(static_cast<double>(ev_hits) / n)});
    std::printf("  ... capacity %zu done\n", cap);
  }
  t.print();
  std::printf(
      "\nreading: ARC's adaptation closes most of LRU's gap without any\n"
      "domain knowledge; the EV scheme encodes size/utilization awareness\n"
      "whose payoff shows on the SSD level (Formula 1 block economy), not\n"
      "in raw L1 hit ratio.\n");
  return 0;
}
