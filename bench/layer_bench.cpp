// Layer bench: the host wall-clock cost of each src/ layer, from NAND
// ops up to the two-level system, in one record schema (DESIGN.md §8).
//
// Each record is {layer, name, unit, n, median, min, mad[, fingerprint
// [, pin]][, at_most | at_least]} over n timed chunks: one sample is the
// time per op of one chunk of a fixed op stream. All variants of a layer run interleaved —
// chunk r of every variant's stream, then chunk r + 1 — and the order
// flips every repeat, so host drift lands on all of them alike. A
// comparison is the median of its per-chunk ratios.
//
// Gates (exit 1). Each pin and bound is defined here only and written
// into its record (`pin`, `at_most`, `at_least`), where
// scripts/check_bench_json.py re-checks it on the file:
//  * pins: at the full query counts the exhaustive daat checksum and the
//    cache / ssd coverage fingerprints equal kDaatPin / kCachePin /
//    kSsdPin;
//  * block-max top-K bit-identical to exhaustive on every query, and the
//    idle-instrumented daat checksum identical to the untraced one;
//  * bounds: index/packed_ratio (raw over block-packed bytes) always
//    holds its bound; the timed ratios engine/trace_overhead (idle
//    instrumentation) and engine/block_max_speedup (exhaustive over
//    block-max time) hold theirs on optimized builds at the full counts.
//
// SSDSE_QUERIES sets the system-phase queries (default 40000),
// SSDSE_DAAT_QUERIES the daat queries (default 20000), SSDSE_BENCH_OUT
// the record file (default layer_bench.json) and SSDSE_TELEMETRY_OUT the
// ssd phase's run report (default TELEMETRY.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "perfbench/host_speed.hpp"
#include "src/cache/mem_list_cache.hpp"
#include "src/cache/mem_result_cache.hpp"
#include "src/engine/daat.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/ssd/ssd.hpp"
#include "src/storage/hdd.hpp"
#include "src/telemetry/tracer.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"
#include "src/util/zipf.hpp"
#include "src/workload/query_log.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

// ssdse-lint: allow(nondeterminism) wall-clock measures real throughput only
using Clock = std::chrono::steady_clock;

// Output pins, unchanged since they were first recorded: the exhaustive
// daat checksum over 20k queries and the request coverage (ppm) of the
// two system phases over 40k queries.
constexpr std::uint64_t kDaatPin = 9983495460346675520ull;
constexpr std::uint64_t kCachePin = 322028;
constexpr std::uint64_t kSsdPin = 508879;
constexpr std::uint64_t kFullSystemQueries = 40'000;
constexpr std::uint64_t kFullDaatQueries = 20'000;

/// Timed chunks per variant; a ratio's median is taken over kChunks
/// pairs.
constexpr int kChunks = 20;
static_assert(kChunks >= 11, "a median ratio needs at least 11 pairs");

// Bounds on the gated ratios' medians.
constexpr double kPackedRatioMin = 2.5;
constexpr double kTraceOverheadMax = 1.10;
constexpr double kBlockMaxSpeedupMin = 1.0;

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a timed loop's results observable so the loop is not elided.
volatile double g_sink = 0;

struct Record {
  const char* layer;
  std::string name;
  const char* unit;
  std::vector<double> samples{};
  std::optional<std::uint64_t> fingerprint{};
  std::optional<std::uint64_t> pin{};
  std::optional<double> at_most{};
  std::optional<double> at_least{};

  [[nodiscard]] double median() const { return median_of(samples); }
  [[nodiscard]] double min() const {
    return *std::min_element(samples.begin(), samples.end());
  }
  /// Median absolute deviation from the median.
  [[nodiscard]] double mad() const {
    std::vector<double> dev;
    dev.reserve(samples.size());
    const double m = median();
    for (double s : samples) dev.push_back(std::abs(s - m));
    return median_of(dev);
  }

  static double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
  }
};

/// One variant of a layer: runs chunk `r` of its op stream and returns
/// the time per op, in `unit`.
struct Variant {
  std::string name;
  const char* unit;
  std::function<double(int r)> chunk;
};

/// Runs `variants` interleaved, kChunks repeats, reversing their order
/// on odd repeats; `after_chunk(r)` runs untimed once every variant has
/// run chunk r. Appends one record per variant and returns the index of
/// the first.
std::size_t measure(const char* layer, const std::vector<Variant>& variants,
                    std::vector<Record>& out,
                    const std::function<void(int r)>& after_chunk = {}) {
  const std::size_t first = out.size();
  for (const Variant& v : variants) {
    out.push_back({layer, v.name, v.unit});
  }
  const std::size_t k = variants.size();
  for (int r = 0; r < kChunks; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t v = r % 2 == 0 ? i : k - 1 - i;
      out[first + v].samples.push_back(variants[v].chunk(r));
    }
    if (after_chunk) after_chunk(r);
  }
  return first;
}

/// [lo, hi) of chunk `r` when a stream of `n` items splits into kChunks.
std::pair<std::uint64_t, std::uint64_t> chunk_range(std::uint64_t n, int r) {
  const auto at = [n](int c) {
    return n * static_cast<std::uint64_t>(c) / kChunks;
  };
  return {at(r), at(r + 1)};
}

/// Nanoseconds per call of `ops` calls to `op`, whose results feed the
/// sink.
template <typename Op>
double ns_per_op(std::uint64_t ops, Op&& op) {
  double sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) sink += op();
  const double ns = 1e9 * seconds_since(t0) / static_cast<double>(ops);
  g_sink = g_sink + sink;
  return ns;
}

/// A variant timing `ops` calls of `op` per chunk.
template <typename Op>
Variant per_op(const char* name, std::uint64_t ops, Op op,
               const char* unit = "ns/op") {
  return {name, unit, [ops, op = std::move(op)](int) mutable {
            return ns_per_op(ops, op);
          }};
}

double cost(Micros m) { return m.value(); }
double cost(const IoResult& io) { return io.latency.value(); }

NandConfig small_nand() {
  NandConfig cfg;
  cfg.num_blocks = 1024;
  return cfg;
}

// ---- storage: NAND, SSD and HDD device models ----------------------------

void storage_layer(std::vector<Record>& out) {
  NandArray nand(small_nand());
  const auto ppb = nand.config().pages_per_block;
  std::uint64_t page = 0;
  SsdConfig sc;
  sc.nand = small_nand();
  Ssd ssd(sc);
  Rng ssd_rng(9);
  constexpr std::uint32_t kSectors = 64;  // 32 KiB: a multi-page run
  const Lba ssd_lbas = ssd.capacity_bytes() / kSectorSize - kSectors;
  HddModel hdd;
  Rng hdd_rng(10);
  const Lba hdd_lbas = hdd.capacity_bytes() / kSectorSize - 1024;
  measure("storage",
          {per_op("nand_program_erase", 1'000'000,
                  [&] {
                    double c = cost(nand.program_page(page, page));
                    if (++page % ppb == 0) {
                      c += cost(nand.erase_block(
                          static_cast<Pbn>(page / ppb - 1)));
                      page -= ppb;
                    }
                    return c;
                  }),
           per_op("ssd_sector_write", 20'000,
                  [&] {
                    return cost(
                        ssd.write(ssd_rng.next_below(ssd_lbas), kSectors));
                  }),
           per_op("hdd_random_read", 1'000'000,
                  [&] {
                    return cost(hdd.read(hdd_rng.next_below(hdd_lbas), 512));
                  })},
          out);
}

// ---- ftl: the page-mapping FTL -------------------------------------------

void ftl_layer(std::vector<Record>& out) {
  NandArray seq_nand(small_nand());
  PageFtl seq(seq_nand);
  Lpn cursor = 0;
  NandArray rand_nand(small_nand());
  PageFtl rand(rand_nand);
  Rng rand_rng(7);
  // The perfbench lru_baseline shape: 20-page runs at random offsets in
  // the hottest 93 % of a cache SSD's logical space (about 950 MiB raw),
  // so steady-state GC copies live pages.
  constexpr std::uint64_t kRun = 20;
  NandConfig big;
  big.num_blocks = 7'600;
  NandArray run_nand(big);
  PageFtl run(run_nand);
  const Lpn span = run.logical_pages() * 93 / 100;
  for (Lpn p = 0; p < span; p += kRun) {
    g_sink = g_sink + cost(run.write_run(p, std::min(kRun, span - p)));
  }
  Rng run_rng(11);
  NandArray read_nand(small_nand());
  PageFtl read(read_nand);
  for (Lpn p = 0; p < 4096; ++p) g_sink = g_sink + cost(read.write(p));
  Rng read_rng(8);
  measure("ftl",
          {per_op("page_write_seq", 200'000,
                  [&] {
                    return cost(seq.write(cursor++ % seq.logical_pages()));
                  },
                  "ns/page"),
           per_op("page_write_rand", 200'000,
                  [&] {
                    return cost(rand.write(
                        rand_rng.next_below(rand.logical_pages())));
                  },
                  "ns/page"),
           {"page_run20", "ns/page",
            [&](int) {
              return ns_per_op(10'000, [&] {
                return cost(run.write_run(
                    run_rng.next_below(span - kRun + 1), kRun));
              }) / kRun;
            }},
           per_op("page_read", 1'000'000,
                  [&] { return cost(read.read(read_rng.next_below(4096))); },
                  "ns/page")},
          out);
}

// ---- cache: the LRU container and the memory caches -----------------------

/// Churn on a FlatLruMap of `capacity` entries: 70 % touches of random
/// keys over twice the capacity, 30 % inserts that evict the LRU entry.
Variant flat_lru_churn(const char* name, std::uint64_t capacity) {
  auto lru = std::make_shared<FlatLruMap<std::uint64_t, std::uint64_t>>();
  return per_op(
      name, 500'000,
      [lru, capacity, rng = Rng(1), key = std::uint64_t{0}]() mutable {
        if (rng.chance(0.7)) {
          const auto* v = lru->touch(rng.next_below(capacity * 2));
          return v != nullptr ? 1.0 : 0.0;
        }
        const std::uint64_t k = key++ % (capacity * 2);
        lru->insert(k, key);
        if (lru->size() > capacity) (void)lru->pop_lru();
        return 0.0;
      });
}

void cache_layer(std::vector<Record>& out) {
  MemResultCache results(10 * MiB);
  QueryId qid{};
  MemListCache lists(64 * MiB, CachePolicy::kCblru, 8);
  Rng list_rng(3);
  measure("cache",
          {// The SSD result cache's block map holds ~160 entries in
           // the hybrid/ssd cell; 65,536 entries outgrow the private
           // CPU caches.
           flat_lru_churn("flat_lru_churn_1024", 1'024),
           flat_lru_churn("flat_lru_churn_65536", 65'536),
           per_op("mem_result_insert", 500'000,
                  [&] {
                    ResultEntry e;
                    e.query = qid++;
                    return static_cast<double>(
                        results.insert(std::move(e)).evicted.size());
                  }),
           per_op("mem_list_mixed", 200'000,
                  [&] {
                    const auto term =
                        static_cast<TermId>(list_rng.next_below(100'000));
                    if (lists.lookup(term, 4 * KiB) != nullptr) return 1.0;
                    CachedList info;
                    info.cached_bytes =
                        4 * KiB + list_rng.next_below(512 * KiB);
                    info.full_bytes = info.cached_bytes * 2;
                    info.utilization = 0.5;
                    info.sc_blocks = static_cast<std::uint32_t>(
                        info.cached_bytes / (128 * KiB) + 1);
                    info.ev = 1.0;
                    return static_cast<double>(
                        lists.insert(term, info).size());
                  })},
          out);
}

// ---- workload: Zipf samplers and the query generator ----------------------

void workload_layer(std::vector<Record>& out) {
  constexpr std::uint64_t kRanks = 1'000'000;
  const ZipfSampler zipf(kRanks, 0.9);
  Rng zipf_rng(2);
  const AliasZipfSampler alias(kRanks, 0.9);
  Rng alias_rng(2);
  QueryLogGenerator gen(QueryLogConfig{});
  QueryLogConfig alias_cfg;
  alias_cfg.alias_sampler = true;
  QueryLogGenerator alias_gen(alias_cfg);
  measure(
      "workload",
      {per_op("zipf", 500'000,
              [&] { return static_cast<double>(zipf.sample(zipf_rng)); }),
       per_op("alias_zipf", 500'000,
              [&] { return static_cast<double>(alias.sample(alias_rng)); }),
       per_op("query_gen", 100'000,
              [&] { return static_cast<double>(gen.next().terms.size()); }),
       per_op("query_gen_alias", 100'000, [&] {
         return static_cast<double>(alias_gen.next().terms.size());
       })},
      out);
}

// ---- index and engine: the daat corpus ------------------------------------

/// Chunk r of the daat query stream.
std::span<const Query> chunk_of(const std::vector<Query>& batch, int r) {
  const auto [lo, hi] = chunk_range(batch.size(), r);
  return {batch.data() + lo, hi - lo};
}

/// Posting bytes of the daat corpus: raw, block-packed (the index's
/// own store) and stream-vbyte, and the raw-over-packed ratio.
void index_layer(const MaterializedIndex& index, std::vector<Record>& out) {
  const Bytes raw = index.raw_posting_bytes();
  const Bytes packed = index.block_store().encoded_bytes();
  const Bytes svb =
      DaatWorkload(0, "stream-vbyte").index->block_store().encoded_bytes();
  for (const auto& [name, bytes] : {std::pair{"raw_bytes", raw},
                                    std::pair{"packed_bytes", packed},
                                    std::pair{"svb_bytes", svb}}) {
    out.push_back({"index", name, "bytes", {static_cast<double>(bytes)}});
  }
  out.push_back({.layer = "index",
                 .name = "packed_ratio",
                 .unit = "ratio",
                 .samples = {static_cast<double>(raw) /
                             static_cast<double>(packed)},
                 .at_least = kPackedRatioMin});
}

struct DaatOut {
  ResultEntry result;
  DaatStats stats;
};

/// One chunk of daat queries, in microseconds per query. kTraced
/// compiles span calls in against `tracer` (runtime-idle in this bench);
/// without it they are compiled out.
template <bool kTraced>
double daat_chunk(DaatProcessor& daat, const MaterializedIndex& index,
                  std::span<const Query> queries,
                  telemetry::QueryTracer* tracer, std::vector<DaatOut>& out) {
  out.clear();
  const auto t0 = Clock::now();
  for (const Query& q : queries) {
    if constexpr (kTraced) tracer->begin_query(q.id);
    DaatOut& o = out.emplace_back();
    o.result = daat.intersect(index, q, &o.stats);
    if constexpr (kTraced) {
      tracer->add_span(telemetry::TraceStage::kDaatScore,
                       static_cast<Micros>(o.stats.postings_touched));
      tracer->end_query(static_cast<Micros>(o.stats.postings_touched));
    }
  }
  return 1e6 * seconds_since(t0) / static_cast<double>(queries.size());
}

/// The daat checksum the pin is defined by: per query, docs_scored +
/// postings_touched, then an FNV-style fold of every doc id and score.
std::uint64_t fold(std::uint64_t checksum, const DaatStats& stats,
                   const ResultEntry& r) {
  checksum += stats.docs_scored + stats.postings_touched;
  for (const ScoredDoc& d : r.docs) {
    std::uint32_t bits;
    std::memcpy(&bits, &d.score, sizeof bits);
    checksum = checksum * 1099511628211ull + d.doc.raw() + bits;
  }
  return checksum;
}

/// Records daat_exhaustive, daat_traced_idle and daat_block_max, then
/// the per-chunk ratios trace_overhead (traced / untraced time) and
/// block_max_speedup (exhaustive / block-max time). The block-max
/// fingerprint folds exhaustive's stats with block-max's top-K, so it
/// equals the exhaustive one exactly when every top-K is identical.
void engine_layer(const DaatWorkload& w, std::vector<Record>& out) {
  DaatProcessor exhaustive(kTopK);
  DaatProcessor traced(kTopK);
  DaatProcessor pruned(kTopK, DaatMode::kBlockMax);
  telemetry::QueryTracer tracer;
  tracer.set_enabled(false);  // compiled in, runtime-idle
  std::vector<DaatOut> ex_out, tr_out, bm_out;
  std::uint64_t ex_fp = 0, tr_fp = 0, bm_fp = 0;
  const MaterializedIndex& index = *w.index;
  const std::size_t first = measure(
      "engine",
      {{"daat_exhaustive", "us/query",
        [&](int r) {
          return daat_chunk<false>(exhaustive, index, chunk_of(w.batch, r),
                                   nullptr, ex_out);
        }},
       {"daat_traced_idle", "us/query",
        [&](int r) {
          return daat_chunk<true>(traced, index, chunk_of(w.batch, r),
                                  &tracer, tr_out);
        }},
       {"daat_block_max", "us/query",
        [&](int r) {
          return daat_chunk<false>(pruned, index, chunk_of(w.batch, r),
                                   nullptr, bm_out);
        }}},
      out, [&](int) {
        for (std::size_t i = 0; i < ex_out.size(); ++i) {
          ex_fp = fold(ex_fp, ex_out[i].stats, ex_out[i].result);
          tr_fp = fold(tr_fp, tr_out[i].stats, tr_out[i].result);
          bm_fp = fold(bm_fp, ex_out[i].stats, bm_out[i].result);
        }
      });
  out[first].fingerprint = ex_fp;
  out[first].pin = kDaatPin;
  out[first + 1].fingerprint = tr_fp;
  out[first + 2].fingerprint = bm_fp;
  Record overhead{.layer = "engine",
                  .name = "trace_overhead",
                  .unit = "ratio",
                  .at_most = kTraceOverheadMax};
  Record speedup{.layer = "engine",
                 .name = "block_max_speedup",
                 .unit = "ratio",
                 .at_least = kBlockMaxSpeedupMin};
  overhead.samples.reserve(kChunks);
  speedup.samples.reserve(kChunks);
  for (int r = 0; r < kChunks; ++r) {
    const double ex = out[first].samples[r];
    overhead.samples.push_back(out[first + 1].samples[r] / ex);
    speedup.samples.push_back(ex / out[first + 2].samples[r]);
  }
  out.push_back(std::move(overhead));
  out.push_back(std::move(speedup));
  const PruningStats& p = pruned.pruning();
  std::printf("block-max: %llu prune jumps, %llu blocks skipped, %llu "
              "decoded\n",
              static_cast<unsigned long long>(p.prune_jumps),
              static_cast<unsigned long long>(p.blocks_skipped),
              static_cast<unsigned long long>(p.blocks_decoded));
}

// ---- hybrid: the system phases --------------------------------------------

/// The memory-only cache hierarchy at the paper's 5M-doc scale.
SystemConfig cache_phase() {
  SystemConfig cfg = paper_system(CachePolicy::kCblru);
  cfg.set_memory_budget(64 * MiB);
  cfg.cache.l2 = false;  // set_memory_budget sizes SSD fields; keep off
  cfg.training_queries = 0;
  return cfg;
}

/// Request coverage in parts per million: the system phases' output
/// fingerprint.
std::uint64_t coverage_ppm(SearchSystem& system) {
  system.drain();
  return static_cast<std::uint64_t>(1e6 * system.metrics().request_coverage());
}

void hybrid_layer(std::uint64_t queries, const char* report_path,
                  std::vector<Record>& out) {
  // The ssd phase is the fig14-scale cell: 5M docs, CBSLRU, 10 MiB
  // memory budget, SSD caches 10x/100x.
  SearchSystem cache(cache_phase());
  SearchSystem ssd(paper_system(CachePolicy::kCbslru));
  auto chunk = [queries](SearchSystem& system, int r) {
    const auto [lo, hi] = chunk_range(queries, r);
    const std::uint64_t n = hi - lo;
    const auto t0 = Clock::now();
    system.run(n);
    return 1e6 * seconds_since(t0) / static_cast<double>(n);
  };
  const std::size_t first =
      measure("hybrid",
              {{"cache", "us/query", [&](int r) { return chunk(cache, r); }},
               {"ssd", "us/query", [&](int r) { return chunk(ssd, r); }}},
              out);
  out[first].fingerprint = coverage_ppm(cache);
  out[first].pin = kCachePin;
  out[first + 1].fingerprint = coverage_ppm(ssd);
  out[first + 1].pin = kSsdPin;
  if (!write_run_report(ssd, "ssd", report_path)) {
    std::fprintf(stderr, "layer_bench: cannot write %s\n", report_path);
    std::exit(1);
  }
}

// ---- gates and output -----------------------------------------------------

/// A value as JSON: integers (byte counts) exactly, times to 4 places.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, v == std::floor(v) ? "%.0f" : "%.4f", v);
  return buf;
}

const Record& find(const std::vector<Record>& records, const char* name) {
  return *std::find_if(records.begin(), records.end(),
                       [name](const Record& r) { return r.name == name; });
}

/// Checks every gate, printing each verdict; true when all hold.
bool gates_pass(const std::vector<Record>& records, bool full_counts) {
  bool pass = true;
  auto gate = [&pass](bool ok, bool enforced, const char* what) {
    std::printf("  gate %-52s %s\n", what,
                ok ? "ok" : enforced ? "FAIL" : "off (reported only)");
    pass = pass && (ok || !enforced);
  };
  for (const Record& r : records) {
    if (r.pin) {
      const std::string what = "pin " + std::string(r.layer) + "/" + r.name;
      gate(r.fingerprint == r.pin, full_counts, what.c_str());
    }
  }
  const auto ex_fp = find(records, "daat_exhaustive").fingerprint;
  gate(find(records, "daat_block_max").fingerprint == ex_fp, true,
       "block-max top-K identical to exhaustive");
  gate(find(records, "daat_traced_idle").fingerprint == ex_fp, true,
       "traced-idle checksum identical");
  // Index bounds are on byte counts; the others are on timings.
  const bool timed = kOptimized && full_counts;
  for (const Record& r : records) {
    const bool enforced = std::strcmp(r.layer, "index") == 0 || timed;
    const std::string what =
        std::string(r.layer) + "/" + r.name + " median " + num(r.median());
    if (r.at_most) {
      gate(r.median() <= *r.at_most, enforced,
           (what + " <= " + num(*r.at_most)).c_str());
    }
    if (r.at_least) {
      gate(r.median() >= *r.at_least, enforced,
           (what + " >= " + num(*r.at_least)).c_str());
    }
  }
  return pass;
}

/// One record as a JSON object, without a trailing separator.
void print_record(FILE* f, const Record& r) {
  std::fprintf(f,
               "{\"layer\": \"%s\", \"name\": \"%s\", \"unit\": \"%s\", "
               "\"n\": %zu, \"median\": %s, \"min\": %s, \"mad\": %s",
               r.layer, r.name.c_str(), r.unit, r.samples.size(),
               num(r.median()).c_str(), num(r.min()).c_str(),
               num(r.mad()).c_str());
  if (r.fingerprint) {
    std::fprintf(f, ", \"fingerprint\": %llu",
                 static_cast<unsigned long long>(*r.fingerprint));
  }
  if (r.pin) {
    std::fprintf(f, ", \"pin\": %llu", static_cast<unsigned long long>(*r.pin));
  }
  if (r.at_most) std::fprintf(f, ", \"at_most\": %s", num(*r.at_most).c_str());
  if (r.at_least) {
    std::fprintf(f, ", \"at_least\": %s", num(*r.at_least).c_str());
  }
  std::fprintf(f, "}");
}

void write_json(const char* path, const std::vector<Record>& records,
                bool full_counts) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "layer_bench: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\"bench\": \"layer_bench\", \"schema_version\": 1, "
               "\"optimized\": %s, \"full_counts\": %s, \"records\": [\n",
               kOptimized ? "true" : "false", full_counts ? "true" : "false");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "  ");
    print_record(f, records[i]);
    std::fprintf(f, "%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  print_environment("layer bench — host wall-clock per src/ layer");
  perfbench::pin_to_current_cpu();
  const std::uint64_t system_queries = default_queries(kFullSystemQueries);
  const std::uint64_t daat_queries =
      env_count("SSDSE_DAAT_QUERIES", kFullDaatQueries);
  const bool full_counts = system_queries == kFullSystemQueries &&
                           daat_queries == kFullDaatQueries;
  const char* out = std::getenv("SSDSE_BENCH_OUT");
  if (!out) out = "layer_bench.json";
  const char* report = std::getenv("SSDSE_TELEMETRY_OUT");
  if (!report) report = "TELEMETRY.json";

  std::vector<Record> records;
  storage_layer(records);
  ftl_layer(records);
  cache_layer(records);
  workload_layer(records);
  {
    const DaatWorkload w(std::max<std::uint64_t>(daat_queries, kChunks));
    index_layer(*w.index, records);
    engine_layer(w, records);
  }
  hybrid_layer(std::max<std::uint64_t>(system_queries, kChunks), report,
               records);

  for (const Record& r : records) {
    print_record(stdout, r);
    std::printf("\n");
  }
  const bool pass = gates_pass(records, full_counts);
  write_json(out, records, full_counts);
  std::printf("wrote %s and %s\n", out, report);
  return pass ? 0 : 1;
}
