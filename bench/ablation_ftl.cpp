// Ablation (beyond the paper): the same CBLRU cache workload over the
// two ends of SS II.A's mapping-granularity range. The paper assumes the
// ideal page-mapping FTL; block mapping shows how much that assumption
// matters. Exits 1 unless block mapping's write amplification exceeds
// twice page mapping's, the contrast the ablation exists to show, or
// when a row at a pinned query count differs from its pin.
#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

/// Rows recorded before the page FTL moved to 32-bit maps, a run write
/// path and a bucketed GC victim index; the FTL rewrite must reproduce
/// them exactly.
struct Pin {
  std::uint64_t queries;
  const char* scheme;
  std::uint64_t erases;
  std::uint64_t gc_copies;
  double wa;
};
constexpr Pin kPins[] = {
    {10'000, "page", 0, 0, 1.0},
    {10'000, "page+WL", 0, 0, 1.0},
    {10'000, "block", 67'375, 3'024'210, 14.779668199153411},
    {20'000, "page", 1'591, 533, 1.0013060300362404},
    {20'000, "page+WL", 1'591, 531, 1.0013011293606824},
    {20'000, "block", 209'462, 10'332'884, 26.319056031873995},
};

/// False when `scheme` has a pin at `queries` that the row misses.
bool matches_pin(std::uint64_t queries, const std::string& scheme,
                 std::uint64_t erases, std::uint64_t gc_copies, double wa) {
  for (const Pin& p : kPins) {
    if (p.queries != queries || scheme != p.scheme) continue;
    // 17 significant digits round-trip, so WA must match bit for bit.
    const bool ok =
        erases == p.erases && gc_copies == p.gc_copies && wa == p.wa;
    std::printf("  pin %s @ %llu: erases %llu, GC copies %llu, WA %.17g: %s\n",
                p.scheme, static_cast<unsigned long long>(p.queries),
                static_cast<unsigned long long>(p.erases),
                static_cast<unsigned long long>(p.gc_copies), p.wa,
                ok ? "ok" : "MISMATCH");
    return ok;
  }
  return true;
}

}  // namespace

int main() {
  print_environment("Ablation — FTL scheme under the cache workload");
  const auto queries = default_queries(20'000);

  Table t({"FTL", "resp (ms)", "block erases", "flash access (us)",
           "write amp", "GC copies"});
  double page_wa = 0;
  double block_wa = 0;
  bool pins_ok = true;
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
    const std::uint64_t copies = ssd->ftl().stats().gc_page_copies;
    pins_ok &= matches_pin(queries, scheme, ssd->block_erases(), copies, wa);
    t.add_row({scheme, fmt_ms(system.metrics().mean_response()),
               Table::integer(static_cast<long long>(ssd->block_erases())),
               Table::num(ssd->mean_flash_access().value(), 2),
               Table::num(wa, 3),
               Table::integer(static_cast<long long>(copies))});
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
  if (!pins_ok) std::printf("gate: a pinned row changed: FAIL\n");
  return pass && pins_ok ? 0 : 1;
}
