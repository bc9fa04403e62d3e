// Shared helpers for the reproduction benches: the standard experiment
// header (Tables II/III), common configurations, and small formatting
// utilities.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/hybrid/run_report.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/index/corpus.hpp"
#include "src/index/inverted_index.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse::bench {

/// Print the simulated environment (the content of the paper's Tables
/// II and III) so every bench output is self-describing.
inline void print_environment(const char* experiment) {
  std::printf("=== %s ===\n", experiment);
  std::printf(
      "simulated environment (paper Tables II/III):\n"
      "  SSD: page-mapping FTL, 2 KiB pages, 64-page (128 KiB) blocks,\n"
      "       read 32.725 us, program 101.475 us, erase 1.5 ms\n"
      "  HDD: 7200 RPM, 0.8-12 ms seek, 100 MiB/s transfer\n"
      "  corpus: synthetic enwiki-like (Zipf df); query log: AOL-like "
      "Zipf\n\n");
}

/// A positive count from environment variable `name`, else `fallback`.
inline std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

/// Number of queries for full-system runs; override with SSDSE_QUERIES
/// to trade fidelity for speed.
inline std::uint64_t default_queries(std::uint64_t fallback = 50'000) {
  return env_count("SSDSE_QUERIES", fallback);
}

/// The paper's standard 5M-document cell.
inline SystemConfig paper_system(CachePolicy policy,
                                 std::uint64_t docs = 5'000'000,
                                 Bytes mem_budget = 10 * MiB) {
  SystemConfig cfg;
  cfg.set_num_docs(docs);
  cfg.set_memory_budget(mem_budget);
  cfg.cache.policy = policy;
  cfg.training_queries = 10'000;
  return cfg;
}

/// The daat workload: a 40k-doc materialized corpus whose block store
/// uses `codec`, and a fixed stream of `queries` 2-3 term queries.
/// layer_bench's daat pin is defined over it; ablation_codec's pruning
/// cells run on it per block codec.
struct DaatWorkload {
  explicit DaatWorkload(std::uint64_t queries,
                        const std::string& codec = "block-packed") {
    CorpusConfig cc;
    cc.num_docs = 40'000;
    cc.vocab_size = 2'000;
    cc.terms_per_doc = 60;
    cc.max_df_fraction = 0.10;
    cc.codec = codec;
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

inline std::string fmt_ms(Micros us) { return Table::num(us / kMillisecond, 2); }

/// Figure benches emit a telemetry run report for their representative
/// cell when SSDSE_TELEMETRY_OUT names a path (layer_bench always
/// emits; see DESIGN.md §9 for the schema).
inline void maybe_write_report(const telemetry::RegistrySnapshot& metrics,
                               bool tracing, const std::string& run_name,
                               const TrafficResult* traffic = nullptr,
                               const ReplicationSnapshot* replication = nullptr) {
  if (const char* path = std::getenv("SSDSE_TELEMETRY_OUT")) {
    if (write_run_report(metrics, tracing, run_name, path, traffic,
                         replication)) {
      std::printf("wrote telemetry report %s (%s)\n", path,
                  run_name.c_str());
    } else {
      std::fprintf(stderr, "cannot write telemetry report %s\n", path);
    }
  }
}

inline void maybe_write_report(const SearchSystem& sys,
                               const std::string& run_name,
                               const TrafficResult* traffic = nullptr) {
  maybe_write_report(sys.telemetry_registry().snapshot(),
                     sys.tracer().enabled(), run_name, traffic);
}

/// A cluster run reports every shard, replica and the broker.
inline void maybe_write_report(const SearchCluster& cluster,
                               const std::string& run_name,
                               const TrafficResult* traffic = nullptr,
                               const ReplicationSnapshot* replication = nullptr) {
  maybe_write_report(cluster.telemetry_snapshot(),
                     cluster.broker_tracer().enabled(), run_name, traffic,
                     replication);
}

}  // namespace ssdse::bench
