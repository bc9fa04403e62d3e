// Writes telemetry run reports for four representative systems, so the
// `run_report_schema` CTest can validate them with
// scripts/check_bench_json.py:
//
//   cbslru.json  the paper's CBSLRU cell, small, with a cache SSD;
//   ingest.json  a materialized index under ingest/delete churn and a
//                segment merge (ingest.* and cache.stale.* populated);
//   faults.json  HDD and NAND faults armed, breaker tuned to trip;
//   cluster.json two shards of two replicas with a slow primary, merged
//                over every replica and the broker.
//
// Usage: run_report_writer <out-dir>   (created if missing)
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/hybrid/run_report.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.set_num_docs(100'000);
  cfg.set_memory_budget(4 * MiB);
  cfg.cache.policy = CachePolicy::kCbslru;
  cfg.training_queries = 1'000;
  return cfg;
}

bool write(const telemetry::RegistrySnapshot& metrics, bool tracing,
           const std::string& dir, const std::string& name,
           const ReplicationSnapshot* replication = nullptr) {
  const std::string path = dir + "/" + name + ".json";
  if (!write_run_report(metrics, tracing, name, path, nullptr,
                        replication)) {
    std::fprintf(stderr, "run_report_writer: cannot write %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

bool write(const SearchSystem& sys, const std::string& dir,
           const std::string& name) {
  return write(sys.telemetry_registry().snapshot(), sys.tracer().enabled(),
               dir, name);
}

bool write_cbslru(const std::string& dir) {
  SearchSystem sys(small_system());
  sys.run(2'000);
  return write(sys, dir, "cbslru");
}

bool write_ingest(const std::string& dir) {
  CorpusConfig cc;
  cc.num_docs = 1'500;
  cc.vocab_size = 400;
  cc.terms_per_doc = 15;
  cc.seed = 7;
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);

  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 2'000;
  cfg.set_memory_budget(2 * MiB);
  cfg.cache.ssd_result_capacity = 4 * MiB;
  cfg.cache.ssd_list_capacity = 16 * MiB;
  cfg.training_queries = 500;
  cfg.ingest.enabled = true;
  SearchSystem sys(cfg, index, corpus);

  Rng bag_rng(11);
  for (std::uint32_t round = 0; round < 40; ++round) {
    sys.run(25);
    std::vector<std::pair<TermId, std::uint32_t>> bag;
    for (int i = 0; i < 6; ++i) {
      const auto term = static_cast<TermId>(bag_rng.next_below(cc.vocab_size));
      bag.emplace_back(term,
                       1 + static_cast<std::uint32_t>(bag_rng.next_below(3)));
    }
    (void)sys.ingest_document(std::move(bag));
    if (round % 4 == 3) (void)sys.delete_document(DocId{round});
    if (round == 20) sys.merge_now();
  }
  sys.run(200);
  return write(sys, dir, "ingest");
}

bool write_faults(const std::string& dir) {
  SystemConfig cfg = small_system();
  cfg.cache_ssd.nand.fault.read_unc_rate = 0.05;
  cfg.cache_ssd.nand.fault.read_transient_rate = 0.10;
  cfg.cache_ssd.nand.fault.program_fail_rate = 0.001;
  cfg.hdd_faults.read_unc_rate = 0.02;
  cfg.hdd_faults.read_transient_rate = 0.05;
  cfg.hdd_faults.latency_spike_rate = 0.01;
  cfg.cache.breaker.window = 32;
  cfg.cache.breaker.min_samples = 8;
  cfg.cache.breaker.cooldown_ops = 64;
  SearchSystem sys(cfg);
  sys.run(2'000);
  return write(sys, dir, "faults");
}

bool write_cluster(const std::string& dir) {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.total_docs = 200'000;
  cfg.shard_template = small_system();
  cfg.shard_deadline = ms(100);
  cfg.replication.replication_factor = 2;
  cfg.replication.failover = true;
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ReplicaFaultOverride slow;
    slow.shard = s;
    slow.replica = 0;
    slow.hdd.latency_spike_rate = 0.2;
    slow.hdd.spike_latency = ms(200);
    cfg.replica_faults.push_back(slow);
  }
  SearchCluster cluster(cfg);
  cluster.run(1'000);
  const ReplicationSnapshot snap = cluster.replication_snapshot();
  return write(cluster.telemetry_snapshot(), cluster.broker_tracer().enabled(),
               dir, "cluster", &snap);
}

}  // namespace
}  // namespace ssdse

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: run_report_writer <out-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "run_report_writer: cannot create %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return 1;
  }
  const bool ok = ssdse::write_cbslru(dir) && ssdse::write_ingest(dir) &&
                  ssdse::write_faults(dir) && ssdse::write_cluster(dir);
  return ok ? 0 : 1;
}
