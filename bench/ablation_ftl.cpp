// Ablation (beyond the paper): the same CBLRU cache workload over the
// two ends of SS II.A's mapping-granularity range. The paper assumes the
// ideal page-mapping FTL; block mapping shows how much that assumption
// matters. Exits 1 unless block mapping's write amplification exceeds
// twice page mapping's, the contrast the ablation exists to show.
#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

int main() {
  print_environment("Ablation — FTL scheme under the cache workload");
  const auto queries = default_queries(20'000);

  Table t({"FTL", "resp (ms)", "block erases", "flash access (us)",
           "write amp", "GC copies"});
  double page_wa = 0;
  double block_wa = 0;
  for (const std::string& scheme :
       {std::string("page"), std::string("page+WL"), std::string("block")}) {
    SystemConfig cfg = paper_system(CachePolicy::kCblru, 2'000'000, 6 * MiB);
    if (scheme == "page+WL") {
      cfg.cache_ssd.ftl_scheme = "page";
      cfg.cache_ssd.ftl.wear_leveling = true;
    } else {
      cfg.cache_ssd.ftl_scheme = scheme;
    }
    SearchSystem system(cfg);
    system.run(queries);
    system.drain();
    const Ssd* ssd = system.cache_ssd();
    const double wa =
        ssd->ftl().stats().write_amplification(ssd->nand().stats());
    if (scheme == "page") page_wa = wa;
    if (scheme == "block") block_wa = wa;
    t.add_row({scheme, fmt_ms(system.metrics().mean_response()),
               Table::integer(static_cast<long long>(ssd->block_erases())),
               Table::num(ssd->mean_flash_access().value(), 2),
               Table::num(wa, 3),
               Table::integer(static_cast<long long>(
                   ssd->ftl().stats().gc_page_copies))});
    std::printf("  ... %s done\n", scheme.c_str());
  }
  t.print();
  std::printf(
      "\nreading: under CBLRU's write shaping the page-mapped FTL is\n"
      "near-ideal (write amplification ~1.0), validating the paper's\n"
      "baseline choice; block mapping still collapses on the partial-\n"
      "block list writes, and wear leveling costs nothing here.\n");

  const bool pass = block_wa > 2.0 * page_wa;
  std::printf("\ngate: block WA %.3f > 2 x page WA %.3f: %s\n", block_wa,
              page_wa, pass ? "ok" : "FAIL");
  return pass ? 0 : 1;
}
