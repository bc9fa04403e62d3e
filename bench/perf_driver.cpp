// Wall-clock performance driver: measures the speed of the *simulator
// itself* (not simulated time) on a fixed workload, and emits the
// result as BENCH_PR3.json so the perf trajectory of the repo is
// tracked across PRs (ROADMAP: "runs as fast as the hardware allows").
//
// Three phases isolate the layers of the query hot path:
//  * daat  — materialized-index conjunctive top-K (DaatProcessor over
//            the compressed posting blocks) on a small real corpus:
//            pure engine + block-decode cost;
//  * cache — one-level (memory-only) SearchSystem at the paper's 5M-doc
//            scale: QM/RM cache machinery without flash;
//  * ssd   — full two-level CBSLRU hierarchy (write buffer, SSD caches,
//            FTL + NAND model): the fig14-scale workload.
//
// Each phase also records a result checksum / coverage figure so a
// before/after comparison can assert the optimization changed *time
// only*, never output.
//
// Override query counts with SSDSE_QUERIES (system phases) and
// SSDSE_DAAT_QUERIES; output path with SSDSE_BENCH_OUT; the daat-phase
// DaatProcessor mode with SSDSE_DAAT_MODE ("exhaustive" | "block-max").
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_common.hpp"
#include "src/engine/daat.hpp"
#include "src/hybrid/run_report.hpp"
#include "src/telemetry/tracer.hpp"
#include "src/util/rng.hpp"
#include "src/workload/query_log.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

// ssdse-lint: allow(nondeterminism) wall-clock measures real throughput only
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

struct PhaseResult {
  const char* name;
  std::uint64_t queries = 0;
  double wall_ms = 0;
  double qps = 0;
  /// Output fingerprint: DAAT result checksum or request coverage in
  /// parts-per-million. Must be invariant under perf-only changes.
  std::uint64_t fingerprint = 0;
};

/// The daat-phase workload, shared with the zero-overhead trace guard.
struct DaatWorkload {
  explicit DaatWorkload(std::uint64_t queries) {
    CorpusConfig cc;
    cc.num_docs = 40'000;
    cc.vocab_size = 2'000;
    cc.terms_per_doc = 60;
    cc.max_df_fraction = 0.10;
    cc.seed = 2012;
    Rng rng(99);
    corpus = std::make_unique<MaterializedCorpus>(cc, rng);
    index = std::make_unique<MaterializedIndex>(*corpus);

    QueryLogConfig qc;
    qc.distinct_queries = 50'000;
    qc.vocab_size = cc.vocab_size;
    qc.min_terms = 2;
    qc.max_terms = 3;
    qc.seed = 17;
    QueryLogGenerator gen(qc);
    batch.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) batch.push_back(gen.next());
  }

  std::unique_ptr<MaterializedCorpus> corpus;
  std::unique_ptr<MaterializedIndex> index;
  std::vector<Query> batch;
};

/// The daat hot loop. `kTraced=false` compiles the span calls away
/// entirely (if constexpr), giving the guard a true tracing-compiled-out
/// baseline inside one binary; `kTraced=true` instruments each query
/// against `tracer`. Both variants must produce the same checksum.
template <bool kTraced>
std::uint64_t daat_loop(const DaatWorkload& w, DaatMode mode,
                        telemetry::QueryTracer* tracer) {
  DaatProcessor daat(/*top_k=*/kTopK, mode);
  std::uint64_t checksum = 0;
  for (const Query& q : w.batch) {
    if constexpr (kTraced) tracer->begin_query(q.id);
    DaatStats stats;
    const ResultEntry r = daat.intersect(*w.index, q, &stats);
    checksum += stats.docs_scored + stats.postings_touched;
    for (const ScoredDoc& d : r.docs) {
      std::uint32_t bits;
      std::memcpy(&bits, &d.score, sizeof bits);
      checksum = checksum * 1099511628211ull + d.doc.raw() + bits;
    }
    if constexpr (kTraced) {
      tracer->add_span(telemetry::TraceStage::kDaatScore,
                       static_cast<Micros>(stats.postings_touched));
      tracer->end_query(static_cast<Micros>(stats.postings_touched));
    }
  }
  return checksum;
}

/// Phase 1: the DAAT engine on a materialized index. Build cost (the
/// one-time block encoding) is excluded: the simulator builds once and
/// serves millions of queries.
///
/// SSDSE_DAAT_MODE selects the mode ("exhaustive" default, "block-max"
/// for the pruned path). Exhaustive stays the default: the pinned
/// fingerprint folds DaatStats, which pruning legitimately changes
/// (the results never do — BENCH_PR7.json gates that).
PhaseResult run_daat_phase(std::uint64_t queries, DaatMode mode) {
  DaatWorkload w(queries);
  const auto t0 = Clock::now();
  const std::uint64_t checksum = daat_loop<false>(w, mode, nullptr);
  const double wall = ms_since(t0);
  return PhaseResult{"daat", queries, wall,
                     1000.0 * static_cast<double>(queries) / wall,
                     checksum};
}

/// Zero-overhead guard: the telemetry layer must never tax the hot path
/// when it is off. Runs the daat loop with spans compiled out and with
/// spans compiled in against an idle (runtime-disabled) tracer, in
/// alternating min-of-N pairs; the checksums must match bit-for-bit and
/// the instrumented wall time must stay within 10 %.
struct TraceGuardResult {
  std::uint64_t fingerprint_off = 0;
  std::uint64_t fingerprint_on = 0;
  double wall_ratio = 0;  // instrumented-idle / compiled-out (min-of-N)
  bool enforced = false;  // qps bound enforced (Release builds)
  bool pass = false;
};

TraceGuardResult run_trace_guard(std::uint64_t queries) {
  DaatWorkload w(queries);
  telemetry::QueryTracer tracer;
  tracer.set_enabled(false);  // compiled in, runtime-idle

  TraceGuardResult g;
  double best_off = 0, best_on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    g.fingerprint_off = daat_loop<false>(w, DaatMode::kExhaustive, nullptr);
    const double off = ms_since(t0);
    t0 = Clock::now();
    g.fingerprint_on = daat_loop<true>(w, DaatMode::kExhaustive, &tracer);
    const double on = ms_since(t0);
    if (rep == 0 || off < best_off) best_off = off;
    if (rep == 0 || on < best_on) best_on = on;
  }
  g.wall_ratio = best_off > 0 ? best_on / best_off : 1.0;
#ifdef NDEBUG
  g.enforced = true;
#endif
  g.pass = g.fingerprint_off == g.fingerprint_on &&
           (!g.enforced || g.wall_ratio <= 1.10);
  return g;
}

/// Shared body of the two system phases: run the fixed query stream,
/// time it, fingerprint the request coverage. When `report_path` is
/// set, the phase additionally emits the telemetry run report.
PhaseResult run_system_phase(const char* name, SystemConfig cfg,
                             std::uint64_t queries,
                             const char* report_path = nullptr) {
  SearchSystem system(cfg);
  const auto t0 = Clock::now();
  system.run(queries);
  system.drain();
  const double wall = ms_since(t0);
  if (report_path != nullptr &&
      !write_run_report(system, name, report_path)) {
    std::fprintf(stderr, "perf_driver: cannot write %s\n", report_path);
    std::exit(1);
  }
  const auto coverage_ppm = static_cast<std::uint64_t>(
      1e6 * system.metrics().request_coverage());
  return PhaseResult{name, queries, wall,
                     1000.0 * static_cast<double>(queries) / wall,
                     coverage_ppm};
}

/// Phase 2: memory-only cache hierarchy at web scale (no flash model).
PhaseResult run_cache_phase(std::uint64_t queries) {
  SystemConfig cfg = paper_system(CachePolicy::kCblru);
  cfg.cache.l2 = false;
  cfg.set_memory_budget(64 * MiB);
  cfg.cache.l2 = false;  // set_memory_budget sizes SSD fields; keep off
  cfg.training_queries = 0;
  return run_system_phase("cache", cfg, queries);
}

/// Phase 3: the full two-level hierarchy — the fig14_hit_ratio-scale
/// cell (5M docs, CBSLRU, 10 MiB memory budget, SSD 10x/100x). This is
/// the phase whose telemetry report the CI schema check validates.
PhaseResult run_ssd_phase(std::uint64_t queries, const char* report_path) {
  SystemConfig cfg = paper_system(CachePolicy::kCbslru);
  return run_system_phase("ssd", cfg, queries, report_path);
}

void write_json(const char* path, const std::vector<PhaseResult>& phases,
                const TraceGuardResult& guard) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "perf_driver: cannot write %s\n", path);
    std::exit(1);
  }
  std::uint64_t total_q = 0;
  double total_ms = 0;
  for (const auto& p : phases) {
    total_q += p.queries;
    total_ms += p.wall_ms;
  }
  std::fprintf(f, "{\n  \"bench\": \"perf_driver\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"queries\": %llu, "
                 "\"wall_ms\": %.3f, \"qps\": %.1f, "
                 "\"fingerprint\": %llu}%s\n",
                 p.name, static_cast<unsigned long long>(p.queries),
                 p.wall_ms, p.qps,
                 static_cast<unsigned long long>(p.fingerprint),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"trace_guard\": {\"fingerprint_match\": %s, "
               "\"wall_ratio\": %.4f, \"enforced\": %s, \"pass\": %s},\n",
               guard.fingerprint_off == guard.fingerprint_on ? "true"
                                                             : "false",
               guard.wall_ratio, guard.enforced ? "true" : "false",
               guard.pass ? "true" : "false");
  std::fprintf(f,
               "  \"total\": {\"queries\": %llu, \"wall_ms\": %.3f, "
               "\"qps\": %.1f}\n}\n",
               static_cast<unsigned long long>(total_q), total_ms,
               1000.0 * static_cast<double>(total_q) / total_ms);
  std::fclose(f);
}

}  // namespace

int main() {
  print_environment("perf driver — simulator wall-clock throughput");
  const auto system_queries = default_queries(40'000);
  const auto daat_queries = env_count("SSDSE_DAAT_QUERIES", 20'000);
  const char* out = std::getenv("SSDSE_BENCH_OUT");
  if (!out) out = "BENCH_PR3.json";
  const char* telemetry_out = std::getenv("SSDSE_TELEMETRY_OUT");
  if (!telemetry_out) telemetry_out = "TELEMETRY.json";

  const char* mode_name = std::getenv("SSDSE_DAAT_MODE");
  const DaatMode mode =
      mode_name != nullptr ? daat_mode(mode_name) : DaatMode::kExhaustive;

  std::vector<PhaseResult> phases;
  phases.push_back(run_daat_phase(daat_queries, mode));
  std::printf("  daat : %8.1f q/s  (%.0f ms, fingerprint %llu)\n",
              phases.back().qps, phases.back().wall_ms,
              static_cast<unsigned long long>(phases.back().fingerprint));
  phases.push_back(run_cache_phase(system_queries));
  std::printf("  cache: %8.1f q/s  (%.0f ms, coverage %llu ppm)\n",
              phases.back().qps, phases.back().wall_ms,
              static_cast<unsigned long long>(phases.back().fingerprint));
  phases.push_back(run_ssd_phase(system_queries, telemetry_out));
  std::printf("  ssd  : %8.1f q/s  (%.0f ms, coverage %llu ppm)\n",
              phases.back().qps, phases.back().wall_ms,
              static_cast<unsigned long long>(phases.back().fingerprint));

  const TraceGuardResult guard = run_trace_guard(daat_queries);
  std::printf("  trace guard: wall ratio %.3f (idle-instrumented / "
              "compiled-out), fingerprints %s%s\n",
              guard.wall_ratio,
              guard.fingerprint_off == guard.fingerprint_on ? "match"
                                                            : "DIFFER",
              guard.enforced ? "" : " [ratio not enforced: debug build]");

  write_json(out, phases, guard);
  std::printf("wrote %s and %s\n", out, telemetry_out);

  if (!guard.pass) {
    std::fprintf(stderr,
                 "perf_driver: zero-overhead trace guard FAILED "
                 "(ratio %.3f, fingerprints %llu vs %llu)\n",
                 guard.wall_ratio,
                 static_cast<unsigned long long>(guard.fingerprint_off),
                 static_cast<unsigned long long>(guard.fingerprint_on));
    return 1;
  }
  return 0;
}
