// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop: one client on one thread sends the
// next query only after SearchSystem::execute returns. All inputs (the
// corpus, the query log and the churn stream) derive from --seed.
//
// Two clocks. *Simulated* metrics (sim_*, hit_ratio) come from a fixed
// number of queries after a warm-up, so they repeat exactly for a seed.
// *Host* metrics (host_*, setup_s) come from a window that covers the
// simulated one and runs for at least --seconds of wall time. They are
// scaled to a reference host speed by host_speed.hpp's probe.
//
// perfbench/METRICS.md lists the workloads, every metric and the map
// from each layer's metrics to the end-to-end metrics it should move.
//
// --trace 0 measures the served path and reports the end-to-end
// metrics. --trace 1 runs the same inputs twice: once through execute()
// and once through the public layer calls execute() makes, in the same
// order, with a host-time span around each call. It reports the
// per-layer metrics and fails unless both runs leave every cache.*,
// ssd.cache.* and ingest.* registry reading identical (otherwise the
// spans would be measuring different work).
//
// Both modes check served results against an uncached recompute and
// exit non-zero on any mismatch. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/host_speed.hpp"
#include "src/hybrid/search_system.hpp"

using namespace ssdse;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 finaliser: independent streams from the one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  /// Materialized index with live churn; otherwise the analytic 5M-doc
  /// cell of the paper.
  bool live;
  CachePolicy policy;
  /// Length of the simulated-metric window, in queries.
  std::uint64_t sim_queries;
  /// Warm-up runs in chunks of this many queries until hit ratio and
  /// erases per query level off, or for at most `warmup_max_chunks`.
  std::uint64_t warmup_chunk;
  std::uint32_t warmup_max_chunks;
};

// Why these three: paper_cbslru is the paper's cell, where the list
// working set exceeds DRAM and the SSD cache, so the RB log, the write
// buffer and replacement all churn while the FTL sees aligned block
// writes. lru_baseline is the same cell under plain LRU, whose small
// random SSD writes make FTL garbage collection most of the host work.
// live_churn scores real postings while documents are ingested and
// deleted; its working set fits the caches, so it is the control on
// which the FTL is nearly idle and engine/ingest dominate.
constexpr std::array<Workload, 3> kWorkloads{{
    {"paper_cbslru", false, CachePolicy::kCbslru, 1'000'000, 250'000, 16},
    {"lru_baseline", false, CachePolicy::kLru, 120'000, 50'000, 16},
    {"live_churn", true, CachePolicy::kCblru, 10'000, 2'000, 3},
}};

// Churn on live_churn (bench/ext_ingest's churn_64 cell): one ingest
// per 64 queries, and every 4th ingest also deletes a random document.
constexpr std::uint64_t kIngestEvery = 64;
constexpr std::uint64_t kDeleteEvery = 4;
constexpr std::size_t kBagTerms = 12;

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;

/// Warm-up has levelled off when successive chunks differ by at most
/// this much in hit ratio (absolute) and erases per query (relative).
constexpr double kHitRatioSettle = 0.01;
constexpr double kEraseSettle = 0.05;

/// Oracle: every 101st query of the simulated window is kept and
/// recomputed without caches afterwards (analytic workloads); on
/// live_churn the churned system is probed on this many ranks.
constexpr std::uint64_t kOracleStride = 101;
constexpr std::uint64_t kLiveProbes = 200;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The paper's standard cell (bench/bench_common.hpp paper_system):
/// 5M documents, a 10 MiB DRAM budget split 20/80 between results and
/// lists, SSD caches 10x/100x of that, index on HDD. Both workload
/// configs are copied rather than shared so that no change outside
/// perfbench/ can alter what the benchmark measures.
SystemConfig analytic_config(CachePolicy policy, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.set_num_docs(5'000'000);
  cfg.set_memory_budget(10 * MiB);
  cfg.cache.policy = policy;
  cfg.training_queries = 10'000;
  cfg.corpus.seed = derive_seed(seed, 1);
  cfg.log.seed = derive_seed(seed, 2);
  return cfg;
}

/// bench/ext_ingest's live cell: 20k documents over a 3k vocabulary,
/// with a low merge trigger so the window sees segment merges.
SystemConfig live_config(CachePolicy policy, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.corpus.num_docs = 20'000;
  cfg.corpus.vocab_size = 3'000;
  cfg.corpus.terms_per_doc = 30;
  cfg.corpus.seed = derive_seed(seed, 1);
  cfg.log.vocab_size = cfg.corpus.vocab_size;
  cfg.log.distinct_queries = 20'000;
  cfg.log.seed = derive_seed(seed, 2);
  cfg.set_memory_budget(4 * MiB);
  cfg.cache.ssd_result_capacity = 8 * MiB;
  cfg.cache.ssd_list_capacity = 32 * MiB;
  cfg.cache.policy = policy;
  cfg.training_queries = 2'000;
  cfg.ingest.enabled = true;
  cfg.ingest.merge_segment_postings = 2'048;
  return cfg;
}

// ---------------------------------------------------------------- spans

enum SpanId : std::size_t {
  kNext,
  kLookup,
  kFetch,
  kScore,
  kInsert,
  kIngest,
  kDelete,
  kDrain,
  kNumSpans
};
constexpr std::array<const char*, kNumSpans> kSpanNames{
    "workload.next",          "cache.lookup_result",
    "cache.fetch_list",       "engine.score",
    "cache.insert_result",    "ingest.ingest_document",
    "ingest.delete_document", "cache.drain"};

/// Host time and call count per layer call, summed in memory.
struct Spans {
  std::array<double, kNumSpans> ns{};
  std::array<std::uint64_t, kNumSpans> calls{};
};

/// Times one call into a layer; a null `spans` records nothing.
class SpanGuard {
 public:
  SpanGuard(Spans* spans, SpanId id) : spans_(spans), id_(id) {
    if (spans_ != nullptr) t0_ = Clock::now();
  }
  ~SpanGuard() {
    if (spans_ == nullptr) return;
    spans_->ns[id_] +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
    ++spans_->calls[id_];
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Spans* spans_;
  SpanId id_;
  Clock::time_point t0_{};
};

// ---------------------------------------------------------------- the system

struct SetupTimes {
  double corpus_s = 0;
  double index_s = 0;
  double system_s = 0;
  [[nodiscard]] double total() const { return corpus_s + index_s + system_s; }
};

/// One served system and the benchmark's state around it.
struct Served {
  const Workload* wl = nullptr;
  SystemConfig cfg;
  std::unique_ptr<MaterializedCorpus> corpus;  // live only
  std::unique_ptr<IndexView> index;
  std::unique_ptr<SearchSystem> sys;  // declared last: destroyed first
  SetupTimes setup;
  Rng churn_rng;
  std::uint64_t queries = 0;  // served so far, warm-up included
  std::uint64_t ingests = 0;
  /// live only: every document as churned (deletes leave an empty bag),
  /// from which the oracle rebuilds the index from scratch.
  std::vector<ingest::DocBag> mirror;
};

/// Builds the workload's system. Set-up times are scaled to reference
/// host speed by the probe readings either side of the build.
std::unique_ptr<Served> set_up(const Workload& wl, std::uint64_t seed,
                               perfbench::HostSpeed& host) {
  const double speed0 = host.now();
  auto s = std::make_unique<Served>();
  s->wl = &wl;
  s->churn_rng = Rng(derive_seed(seed, 3));
  const auto t0 = Clock::now();
  if (wl.live) {
    s->cfg = live_config(wl.policy, seed);
    Rng corpus_rng(s->cfg.corpus.seed);
    s->corpus = std::make_unique<MaterializedCorpus>(s->cfg.corpus, corpus_rng);
    const auto t1 = Clock::now();
    auto index = std::make_unique<MaterializedIndex>(*s->corpus);
    MaterializedIndex& mat = *index;
    s->index = std::move(index);
    const auto t2 = Clock::now();
    s->sys = std::make_unique<SearchSystem>(s->cfg, mat, *s->corpus);
    const auto t3 = Clock::now();
    s->setup = {seconds_between(t0, t1), seconds_between(t1, t2),
                seconds_between(t2, t3)};
    s->mirror.reserve(s->corpus->num_docs());
    for (DocId d{}; d.raw() < s->corpus->num_docs(); ++d) {
      s->mirror.push_back(s->corpus->doc(d));
    }
  } else {
    s->cfg = analytic_config(wl.policy, seed);
    auto index = std::make_unique<AnalyticIndex>(s->cfg.corpus);
    // The analytic "corpus" is the term-statistics model the index
    // builds first; the rest of the constructor is the layout.
    const double model_s = index->model().build_wall_ms() / 1e3;
    s->index = std::move(index);
    const auto t2 = Clock::now();
    s->sys = std::make_unique<SearchSystem>(s->cfg, *s->index);
    const auto t3 = Clock::now();
    s->setup = {model_s, seconds_between(t0, t2) - model_s,
                seconds_between(t2, t3)};
  }
  const double speed = 0.5 * (speed0 + host.now());
  s->setup.corpus_s *= speed;
  s->setup.index_s *= speed;
  s->setup.system_s *= speed;
  return s;
}

ingest::DocBag make_bag(Rng& rng, std::uint32_t vocab) {
  ingest::DocBag bag;
  while (bag.size() < kBagTerms) {
    const auto t = static_cast<TermId>(rng.next_below(vocab));
    bool dup = false;
    for (const auto& [bt, tf] : bag) dup |= bt == t;
    if (!dup) {
      bag.emplace_back(t, 1 + static_cast<std::uint32_t>(rng.next_below(5)));
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

/// Count one served query and apply the churn schedule after it.
void after_query(Served& s, Spans* spans) {
  ++s.queries;
  if (!s.wl->live || s.queries % kIngestEvery != 0) return;
  ingest::DocBag bag = make_bag(s.churn_rng, s.cfg.corpus.vocab_size);
  s.mirror.push_back(bag);
  {
    SpanGuard g(spans, kIngest);
    (void)s.sys->ingest_document(std::move(bag));
  }
  if (++s.ingests % kDeleteEvery != 0) return;
  const auto victim =
      static_cast<DocId>(s.churn_rng.next_below(s.sys->index().num_docs()));
  bool deleted = false;
  {
    SpanGuard g(spans, kDelete);
    deleted = s.sys->delete_document(victim);
  }
  if (deleted) s.mirror[victim.raw()].clear();
}

/// Simulated-state readings the untraced loop takes by struct copy.
struct SimCounters {
  CacheManagerStats cache;
  std::uint64_t erases = 0;
  FtlStats ftl;
};

SimCounters sim_counters(const Served& s) {
  const Ssd* ssd = s.sys->cache_ssd();
  return {s.sys->cache_manager().stats(),
          ssd != nullptr ? ssd->block_erases() : 0,
          ssd != nullptr ? ssd->ftl().stats() : FtlStats{}};
}

double hit_ratio_between(const CacheManagerStats& a,
                         const CacheManagerStats& b) {
  const auto lookups = (b.result_lookups + b.list_lookups) -
                       (a.result_lookups + a.list_lookups);
  const auto hits = (b.result_hits_mem + b.result_hits_ssd +
                     b.list_hits_mem + b.list_hits_ssd) -
                    (a.result_hits_mem + a.result_hits_ssd +
                     a.list_hits_mem + a.list_hits_ssd);
  return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0.0;
}

/// Serve queries through execute() until hit ratio and erases per
/// query level off between chunks. Returns the warm-up length.
std::uint64_t warm_up(Served& s) {
  const Workload& wl = *s.wl;
  double prev_hr = 0;
  double prev_epq = 0;
  for (std::uint32_t c = 0; c < wl.warmup_max_chunks; ++c) {
    const SimCounters c0 = sim_counters(s);
    for (std::uint64_t i = 0; i < wl.warmup_chunk; ++i) {
      (void)s.sys->execute(s.sys->generator().next());
      after_query(s, nullptr);
    }
    const SimCounters c1 = sim_counters(s);
    const double hr = hit_ratio_between(c0.cache, c1.cache);
    const double epq = static_cast<double>(c1.erases - c0.erases) /
                       static_cast<double>(wl.warmup_chunk);
    std::printf("  warm-up chunk %u: hit ratio %.4f, erases/query %.4f\n",
                c + 1, hr, epq);
    if (c > 0 && std::abs(hr - prev_hr) <= kHitRatioSettle &&
        std::abs(epq - prev_epq) <= kEraseSettle * prev_epq) {
      return (c + 1) * wl.warmup_chunk;
    }
    prev_hr = hr;
    prev_epq = epq;
  }
  return wl.warmup_max_chunks * wl.warmup_chunk;
}

// ---------------------------------------------------------------- oracle

bool same_result(const ResultEntry& a, const ResultEntry& b) {
  if (a.docs.size() != b.docs.size()) return false;
  for (std::size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].doc != b.docs[i].doc ||
        std::bit_cast<std::uint32_t>(a.docs[i].score) !=
            std::bit_cast<std::uint32_t>(b.docs[i].score)) {
      return false;
    }
  }
  return true;
}

struct OracleOutcome {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t extra_queries = 0;  // probes served after the window
};

/// Analytic workloads: rescore the kept results with a plain Scorer on
/// the same (read-only) AnalyticIndex.
OracleOutcome check_analytic(
    Served& s, const std::vector<std::pair<Query, ResultEntry>>& kept) {
  OracleOutcome o;
  const Scorer scorer(s.cfg.scorer);
  for (const auto& [q, served] : kept) {
    ++o.checked;
    if (!same_result(served, scorer.score(*s.index, q).result)) {
      ++o.mismatches;
    }
  }
  return o;
}

/// live_churn: rebuild the churned document set from scratch (scoring
/// the live MaterializedIndex would write utilizations back into it)
/// and compare a cache-less system against the churned one, caches and
/// all, on the first kLiveProbes query ranks.
OracleOutcome check_live(Served& s) {
  OracleOutcome o;
  MaterializedCorpus corpus(s.cfg.corpus, s.mirror);
  MaterializedIndex index(corpus);
  SystemConfig cfg = s.cfg;
  cfg.use_cache = false;
  cfg.ingest.enabled = false;
  SearchSystem truth(cfg, index);
  for (std::uint64_t r = 0; r < kLiveProbes; ++r) {
    const Query q = s.sys->generator().query_for_rank(r);
    const auto got = s.sys->execute(q);
    const auto want = truth.execute(q);
    ++o.checked;
    ++o.extra_queries;
    if (!same_result(got.result, want.result)) ++o.mismatches;
  }
  return o;
}

// ---------------------------------------------------------------- windows

template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// The host window is cut into blocks of this length, with a speed
/// probe between blocks.
constexpr double kBlockSeconds = 0.5;

/// The untraced, served window.
struct Window {
  std::uint64_t queries = 0;
  /// Host seconds for next() + execute() + churn over the window, plus
  /// the final drain(); probes excluded. `ref_s` is the same time
  /// scaled to the reference machine's speed.
  double host_s = 0;
  double ref_s = 0;
  std::vector<float> exec_us;      // host time of each execute()
  std::vector<float> exec_ref_us;  // the same, at reference speed
  std::vector<double> speeds;      // probe readings, one per boundary
  std::vector<double> sim_us;  // simulated response, simulated window
  SimCounters sim0, sim1;      // around the simulated window
  CacheManagerStats end;       // after the final drain
  std::vector<std::pair<Query, ResultEntry>> kept;  // oracle sample
};

Window run_window(Served& s, perfbench::HostSpeed& host, double min_seconds) {
  const std::uint64_t sim_queries = s.wl->sim_queries;
  Window w;
  w.sim_us.reserve(sim_queries);
  w.exec_us.reserve(sim_queries);
  w.sim0 = sim_counters(s);
  w.speeds.push_back(host.now());
  std::size_t block_first = 0;
  double block_s = 0;
  // Close the open block: scale its time and its queries' times by the
  // mean of the probe readings on either side of it.
  const auto close_block = [&] {
    w.speeds.push_back(host.now());
    const double speed =
        0.5 * (w.speeds[w.speeds.size() - 2] + w.speeds.back());
    w.host_s += block_s;
    w.ref_s += block_s * speed;
    for (std::size_t i = block_first; i < w.exec_us.size(); ++i) {
      w.exec_ref_us.push_back(w.exec_us[i] * static_cast<float>(speed));
    }
    block_first = w.exec_us.size();
    block_s = 0;
  };
  auto t0 = Clock::now();
  for (;;) {
    const Query q = s.sys->generator().next();
    const auto e0 = Clock::now();
    SearchSystem::QueryOutcome out = s.sys->execute(q);
    const auto e1 = Clock::now();
    w.exec_us.push_back(static_cast<float>(
        std::chrono::duration<double, std::micro>(e1 - e0).count()));
    if (w.queries < sim_queries) {
      w.sim_us.push_back(out.response.value());
      if (w.queries % kOracleStride == 0) {
        w.kept.emplace_back(q, std::move(out.result));
      }
    }
    ++w.queries;
    after_query(s, nullptr);
    if (w.queries == sim_queries) w.sim1 = sim_counters(s);
    const bool done = w.queries >= sim_queries &&
                      w.host_s + seconds_between(t0, e1) >= min_seconds;
    if (done) break;
    if (seconds_between(t0, e1) >= kBlockSeconds) {
      block_s = seconds_between(t0, Clock::now());
      close_block();
      t0 = Clock::now();
    }
  }
  s.sys->drain();
  block_s = seconds_between(t0, Clock::now());
  close_block();
  w.end = s.sys->cache_manager().stats();
  return w;
}

/// Simulated time the traced calls accumulate, and the engine's work.
struct StageSums {
  double result_probe_us = 0;
  double list_fetch_us = 0;
  double score_us = 0;
  double model_cpu_us = 0;
  std::uint64_t postings = 0;
};

/// One query through the layer calls SearchSystem::execute makes, in
/// its order (the intersection cache is off in every workload, so its
/// probe and insert are skipped).
void serve_traced(Served& s, const Scorer& scorer, Spans& spans,
                  StageSums& st) {
  SearchSystem& sys = *s.sys;
  CacheManager& cm = sys.cache_manager();
  Query q;
  {
    SpanGuard g(&spans, kNext);
    q = sys.generator().next();
  }
  cm.advance_time();
  Micros t = micros(0);
  Tier tier = Tier::kMemory;
  const ResultEntry* hit = nullptr;
  {
    SpanGuard g(&spans, kLookup);
    hit = cm.lookup_result(q.id, q.terms, &tier, &t);
  }
  st.result_probe_us += t.value();
  if (hit == nullptr) {
    const Micros fetch0 = t;
    for (const TermId term : q.terms) {
      SpanGuard g(&spans, kFetch);
      (void)cm.fetch_list(term, &t);
    }
    st.list_fetch_us += (t - fetch0).value();
    ScoreOutcome scored;
    {
      SpanGuard g(&spans, kScore);
      scored = scorer.score(sys.index(), q);
    }
    st.score_us += scored.cpu_time.value();
    st.model_cpu_us +=
        (scored.cpu_time - scorer.config().cpu_fixed).value();
    st.postings += scored.total_postings;
    {
      SpanGuard g(&spans, kInsert);
      cm.insert_result(scored.result);
    }
  }
  after_query(s, &spans);
}

struct TracedWindow {
  std::uint64_t queries = 0;
  double host_s = 0;
  /// Mean probe reading before and after: span times are scaled by it.
  double speed = 1;
  Spans spans;
  StageSums stages;
  telemetry::RegistrySnapshot before, after;
  DeviceStats hdd0, hdd1;
  FtlStats ftl0, ftl1;
};

TracedWindow run_traced_window(Served& s, perfbench::HostSpeed& host,
                               std::uint64_t queries) {
  TracedWindow w;
  const double speed0 = host.now();
  const Scorer scorer(s.cfg.scorer);
  const auto ftl_stats = [&s] {
    const Ssd* ssd = s.sys->cache_ssd();
    return ssd != nullptr ? ssd->ftl().stats() : FtlStats{};
  };
  w.before = s.sys->telemetry_registry().snapshot();
  w.hdd0 = s.sys->hdd().stats();
  w.ftl0 = ftl_stats();
  const auto t0 = Clock::now();
  for (; w.queries < queries; ++w.queries) {
    serve_traced(s, scorer, w.spans, w.stages);
  }
  {
    SpanGuard g(&w.spans, kDrain);
    s.sys->drain();
  }
  w.host_s = seconds_between(t0, Clock::now());
  w.speed = 0.5 * (speed0 + host.now());
  w.after = s.sys->telemetry_registry().snapshot();
  w.hdd1 = s.sys->hdd().stats();
  w.ftl1 = ftl_stats();
  return w;
}

// ---------------------------------------------------------------- registry

double reading(const telemetry::RegistrySnapshot& snap,
               const std::string& name) {
  const telemetry::MetricSnapshot* m = snap.find(name);
  if (m == nullptr) return 0.0;  // layer absent on this workload
  switch (m->kind) {
    case telemetry::MetricKind::kCounter:
      return static_cast<double>(m->counter);
    case telemetry::MetricKind::kGauge:
      return m->gauge.mean();
    case telemetry::MetricKind::kHistogram:
      return static_cast<double>(m->hist.count());
  }
  return 0.0;
}

bool self_checked(const std::string& name) {
  return name.starts_with("cache.") || name.starts_with("ssd.cache.") ||
         name.starts_with("ingest.");
}

/// Names of the self-checked readings on which two snapshots differ.
std::vector<std::string> decomposition_diffs(
    const telemetry::RegistrySnapshot& served,
    const telemetry::RegistrySnapshot& traced) {
  std::vector<std::string> diffs;
  for (const telemetry::MetricSnapshot& m : served.metrics()) {
    if (!self_checked(m.name)) continue;
    if (traced.find(m.name) == nullptr ||
        reading(served, m.name) != reading(traced, m.name)) {
      diffs.push_back(m.name);
    }
  }
  for (const telemetry::MetricSnapshot& m : traced.metrics()) {
    if (self_checked(m.name) && served.find(m.name) == nullptr) {
      diffs.push_back(m.name);
    }
  }
  return diffs;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;
};

/// Prints one line per metric (`metrics`, then `printed_only`), then
/// the result object, holding `metrics`, as the last line.
void report(const std::vector<Metric>& metrics,
            const std::vector<Metric>& printed_only, bool correct,
            std::uint64_t attempted, std::uint64_t failed) {
  for (const auto* list : {&metrics, &printed_only}) {
    for (const Metric& m : *list) {
      std::printf("  %-40s %16.6f %-8s n=%llu\n", m.name.c_str(), m.value,
                  m.unit, static_cast<unsigned long long>(m.samples));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Distinct lists (bytes the scorer reads of each) and distinct results
/// a window of the query stream touches, replayed from a fresh
/// generator: the system's own generator is untouched by set-up.
struct WorkingSet {
  double list_mib = 0;
  double result_mib = 0;
};

WorkingSet working_set(const Served& s, std::uint64_t skip,
                       std::uint64_t window) {
  QueryLogGenerator gen(s.cfg.log);
  for (std::uint64_t i = 0; i < skip; ++i) (void)gen.next();
  std::unordered_set<std::uint32_t> terms;
  std::unordered_set<std::uint64_t> queries;
  double list_bytes = 0;
  for (std::uint64_t i = 0; i < window; ++i) {
    const Query q = gen.next();
    queries.insert(q.id.raw());
    for (const TermId t : q.terms) {
      if (!terms.insert(t.raw()).second) continue;
      const TermMeta meta = s.index->term_meta(t);
      list_bytes += std::ceil(meta.utilization *
                              static_cast<double>(meta.list_bytes));
    }
  }
  return {list_bytes / static_cast<double>(MiB),
          static_cast<double>(queries.size()) *
              static_cast<double>(kResultEntryBytes) /
              static_cast<double>(MiB)};
}

void print_sizes(const Served& s) {
  const CacheConfig& c = s.cfg.cache;
  const auto mib = [](Bytes b) {
    return static_cast<double>(b) / static_cast<double>(MiB);
  };
  std::printf(
      "  sizes: %llu docs, %u terms, %llu distinct queries; DRAM cache "
      "%.1f MiB (results %.1f, lists %.1f); SSD cache %.1f MiB (results "
      "%.1f, lists %.1f)\n",
      static_cast<unsigned long long>(s.sys->index().num_docs()),
      s.sys->index().vocab_size(),
      static_cast<unsigned long long>(s.cfg.log.distinct_queries),
      mib(c.mem_result_capacity + c.mem_list_capacity),
      mib(c.mem_result_capacity), mib(c.mem_list_capacity),
      mib(c.ssd_result_capacity + c.ssd_list_capacity),
      mib(c.ssd_result_capacity), mib(c.ssd_list_capacity));
}

// ---------------------------------------------------------------- modes

/// --trace 0: the end-to-end metrics of the served path.
int run_end_to_end(const Workload& wl, std::uint64_t seed, double seconds,
                   perfbench::HostSpeed& host) {
  std::vector<double> setups;
  std::unique_ptr<Served> s;
  for (int i = 0; i < kSetups; ++i) {
    // One system alive at a time, and its freed heap handed back, so the
    // peak memory is one system's, not the allocator's leftovers.
    s.reset();
    malloc_trim(0);
    s = set_up(wl, seed, host);
    setups.push_back(s->setup.total());
  }
  print_sizes(*s);
  const std::uint64_t warmup = warm_up(*s);
  // The served system's peak memory at steady state; the window's own
  // per-query sample buffers are the benchmark's, not the system's.
  const double rss_mb = peak_rss_mb();
  const Window w = run_window(*s, host, seconds);
  const OracleOutcome o = wl.live ? check_live(*s)
                                  : check_analytic(*s, w.kept);
  const std::uint64_t io_errors =
      (w.end.ssd_read_errors + w.end.hdd_read_errors) -
      (w.sim0.cache.ssd_read_errors + w.sim0.cache.hdd_read_errors);

  const std::uint64_t nsim = wl.sim_queries;
  double sim_sum_us = 0;
  for (const double r : w.sim_us) sim_sum_us += r;
  const double bg_us = (w.sim1.cache.background_flash_time -
                        w.sim0.cache.background_flash_time)
                           .value();
  const double erases = static_cast<double>(w.sim1.erases - w.sim0.erases);
  const double flash_busy_us =
      (w.sim1.ftl.host_busy - w.sim0.ftl.host_busy).value();
  const std::uint64_t flash_ops =
      (w.sim1.ftl.host_reads + w.sim1.ftl.host_writes) -
      (w.sim0.ftl.host_reads + w.sim0.ftl.host_writes);
  const std::uint64_t attempted = w.queries + o.extra_queries;
  const std::uint64_t failed = std::min(attempted, o.mismatches + io_errors);

  std::printf("workload %s, seed %llu: warm-up %llu queries, simulated "
              "window %llu queries, host window %llu queries in %.3f s\n",
              wl.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(nsim),
              static_cast<unsigned long long>(w.queries), w.host_s);
  std::printf("  host speed probe: median %.3f of the reference machine "
              "over %zu readings; raw window %.3f s, at reference speed "
              "%.3f s\n",
              percentile(w.speeds, 0.5), w.speeds.size(), w.host_s, w.ref_s);
  std::printf("  oracle: %llu results checked, %llu mismatches; %llu I/O "
              "errors\n",
              static_cast<unsigned long long>(o.checked),
              static_cast<unsigned long long>(o.mismatches),
              static_cast<unsigned long long>(io_errors));

  const std::vector<Metric> metrics{
      {"sim_response_p50_ms", percentile(w.sim_us, 0.50) / 1e3, "ms", nsim},
      {"sim_response_p99_ms", percentile(w.sim_us, 0.99) / 1e3, "ms", nsim},
      {"sim_throughput_qps",
       static_cast<double>(nsim) / ((sim_sum_us + bg_us) / 1e6), "1/s", nsim},
      {"hit_ratio", hit_ratio_between(w.sim0.cache, w.sim1.cache), "ratio",
       nsim},
      {"sim_flash_access_us", flash_busy_us / static_cast<double>(flash_ops),
       "us", nsim},
      {"host_qps", static_cast<double>(w.queries) / w.ref_s, "1/s",
       w.queries},
      {"host_query_p50_us", percentile(w.exec_ref_us, 0.50), "us", w.queries},
      {"host_query_p99_us", percentile(w.exec_ref_us, 0.99), "us", w.queries},
      {"setup_s", percentile(setups, 0.50), "s", setups.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
  };
  // Printed with the others but kept out of the result object, which
  // holds only metrics that are never 0: live_churn erases nothing, and
  // failures are the object's own `failed` / `attempted`.
  const std::vector<Metric> zero_on_some{
      {"flash_erases_per_kq", 1e3 * erases / static_cast<double>(nsim),
       "1/kq", nsim},
      {"failed_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
       attempted},
  };
  const bool correct = failed == 0;
  report(metrics, zero_on_some, correct, attempted, failed);
  return correct ? 0 : 1;
}

/// --trace 1: served run, then the traced decomposition of the same
/// inputs; per-layer metrics from the traced run.
int run_traced(const Workload& wl, std::uint64_t seed,
               perfbench::HostSpeed& host) {
  const std::uint64_t n = wl.sim_queries;

  std::unique_ptr<Served> served = set_up(wl, seed, host);
  const SetupTimes setup = served->setup;
  print_sizes(*served);
  const std::uint64_t warmup = warm_up(*served);
  const Window w = run_window(*served, host, 0.0);
  const telemetry::RegistrySnapshot served_end =
      served->sys->telemetry_registry().snapshot();
  const OracleOutcome o = wl.live ? check_live(*served)
                                  : check_analytic(*served, w.kept);
  served.reset();

  std::unique_ptr<Served> traced = set_up(wl, seed, host);
  const std::uint64_t traced_warmup = warm_up(*traced);
  const TracedWindow t = run_traced_window(*traced, host, n);
  const std::vector<std::string> diffs =
      decomposition_diffs(served_end, t.after);
  const WorkingSet ws = working_set(*traced, warmup, n);

  const auto delta = [&t](const std::string& name) {
    return reading(t.after, name) - reading(t.before, name);
  };
  const auto ratio = [](double num, double den) {
    return den != 0 ? num / den : 0.0;
  };
  // Span times at reference host speed.
  const auto span_ns = [&t](SpanId id) { return t.spans.ns[id] * t.speed; };
  const auto per_call_us = [&](SpanId id) {
    return t.spans.calls[id] ? span_ns(id) / 1e3 /
                                   static_cast<double>(t.spans.calls[id])
                             : 0.0;
  };
  const double host_ns_per_posting =
      ratio(span_ns(kScore), static_cast<double>(t.stages.postings));
  const double nq = static_cast<double>(n);
  const auto un = static_cast<std::uint64_t>(n);
  const double io_errors = delta("cache.faults.ssd_read_errors") +
                           delta("cache.faults.hdd_read_errors");
  const double bg_us = delta("cache.background.flash_us");
  const double gc_us = delta("ssd.cache.ftl.gc_busy_us");
  const auto ssd_ops = (t.ftl1.host_reads + t.ftl1.host_writes) -
                       (t.ftl0.host_reads + t.ftl0.host_writes);
  const double ssd_busy_us = (t.ftl1.host_busy - t.ftl0.host_busy).value();
  const double programs = delta("ssd.cache.nand.page_programs");
  const double host_writes = delta("ssd.cache.host.writes");
  const std::uint64_t scored = t.spans.calls[kScore];

  std::vector<Metric> metrics;
  for (std::size_t id = 0; id < kNumSpans; ++id) {
    const auto sid = static_cast<SpanId>(id);
    metrics.push_back({std::string(kSpanNames[id]) + ".host_us",
                       per_call_us(sid), "us", t.spans.calls[id]});
    metrics.push_back({std::string(kSpanNames[id]) + ".calls",
                       static_cast<double>(t.spans.calls[id]), "count", 1});
  }
  const auto counter = [&](const char* name) {
    metrics.push_back({name, delta(name), "count", un});
  };
  metrics.push_back({"cache.result.hit_ratio",
                     ratio(delta("cache.l1.result.hits") +
                               delta("cache.l2.result.hits"),
                           delta("cache.result.probes")),
                     "ratio", un});
  metrics.push_back({"cache.list.hit_ratio",
                     ratio(delta("cache.l1.list.hits") +
                               delta("cache.l2.list.hits"),
                           delta("cache.list.probes")),
                     "ratio", un});
  for (const char* name :
       {"cache.l1.result.hits", "cache.l2.result.hits", "cache.l1.list.hits",
        "cache.l2.list.hits", "cache.hdd.list.reads", "cache.result.discarded",
        "cache.list.discarded", "cache.wb.buffered", "cache.wb.flush_groups",
        "cache.wb.cancelled", "cache.stale.result_invalidations",
        "cache.stale.list_invalidations"}) {
    counter(name);
  }
  metrics.push_back({"cache.wb.cancel_frac",
                     ratio(delta("cache.wb.cancelled"),
                           delta("cache.wb.buffered")),
                     "ratio", un});
  metrics.push_back({"cache.background.flash_us", bg_us, "us", un});
  metrics.push_back({"engine.postings_per_query",
                     ratio(static_cast<double>(t.stages.postings),
                           static_cast<double>(scored)),
                     "count", scored});
  metrics.push_back({"engine.host_ns_per_posting", host_ns_per_posting, "ns",
                     scored});
  metrics.push_back({"engine.model_ns_per_posting",
                     ratio(1e3 * t.stages.model_cpu_us,
                           static_cast<double>(t.stages.postings)),
                     "ns", scored});
  for (const char* name : {"ingest.merges", "ingest.merged_postings"}) {
    counter(name);
  }
  metrics.push_back({"ingest.segment.postings",
                     reading(t.after, "ingest.segment.postings"), "count", 1});
  metrics.push_back({"setup.corpus_s", setup.corpus_s, "s", 1});
  metrics.push_back({"setup.index_s", setup.index_s, "s", 1});
  metrics.push_back({"setup.system_s", setup.system_s, "s", 1});
  for (const char* name :
       {"ssd.cache.host.reads", "ssd.cache.host.writes",
        "ssd.cache.host.trims", "ssd.cache.gc.invocations",
        "ssd.cache.gc.page_copies", "ssd.cache.nand.page_reads",
        "ssd.cache.nand.page_programs", "ssd.cache.nand.block_erases"}) {
    counter(name);
  }
  metrics.push_back({"ssd.cache.write_amplification",
                     ratio(programs, host_writes), "ratio", un});
  metrics.push_back({"ssd.cache.ftl.gc_busy_us", gc_us, "us", un});
  metrics.push_back({"ssd.cache.mean_access_us",
                     ratio(ssd_busy_us, static_cast<double>(ssd_ops)), "us",
                     ssd_ops});
  metrics.push_back({"ssd.cache.wear.max_erases",
                     reading(t.after, "ssd.cache.wear.max_erases"), "count",
                     1});
  metrics.push_back({"hdd.read_ops",
                     static_cast<double>(t.hdd1.read_ops - t.hdd0.read_ops),
                     "count", un});
  metrics.push_back({"hdd.busy_read_us",
                     (t.hdd1.busy_read - t.hdd0.busy_read).value(), "us",
                     un});
  metrics.push_back({"sim.stage.result_probe_us",
                     t.stages.result_probe_us / nq, "us", un});
  metrics.push_back({"sim.stage.list_fetch_us", t.stages.list_fetch_us / nq,
                     "us", un});
  metrics.push_back({"sim.stage.score_us", t.stages.score_us / nq, "us", un});
  metrics.push_back({"sim.stage.background_flush_us",
                     std::max(0.0, bg_us - gc_us) / nq, "us", un});
  metrics.push_back({"sim.stage.ftl_gc_us", gc_us / nq, "us", un});
  metrics.push_back({"cache.faults.ssd_read_errors",
                     delta("cache.faults.ssd_read_errors"), "count", un});
  metrics.push_back({"cache.faults.hdd_read_errors",
                     delta("cache.faults.hdd_read_errors"), "count", un});
  metrics.push_back({"oracle.mismatches", static_cast<double>(o.mismatches),
                     "count", o.checked});
  metrics.push_back({"trace.overhead_ratio",
                     (t.host_s * t.speed / nq) /
                         (w.ref_s / static_cast<double>(w.queries)),
                     "ratio", un});
  metrics.push_back({"warmup.queries", static_cast<double>(warmup), "count",
                     1});

  std::printf("workload %s, seed %llu (traced): warm-up %llu queries, "
              "window %llu queries; served %.3f s, traced %.3f s\n",
              wl.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(n), w.host_s, t.host_s);
  std::printf("  working set over the window: lists %.1f MiB, results "
              "%.1f MiB\n",
              ws.list_mib, ws.result_mib);
  std::printf("  scoring cost: measured %.2f ns/posting on the host, "
              "modelled %.2f ns/posting (ScorerConfig::cpu_per_posting)\n",
              host_ns_per_posting,
              traced->cfg.scorer.cpu_per_posting.value() * 1e3);
  bool correct = o.mismatches == 0 && io_errors == 0;
  if (traced_warmup != warmup) {
    std::printf("  self-check FAILED: warm-up lengths differ (%llu vs "
                "%llu)\n",
                static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(traced_warmup));
    correct = false;
  }
  if (!diffs.empty()) {
    std::printf("  self-check FAILED: %zu registry readings differ between "
                "the served and traced runs:",
                diffs.size());
    for (const std::string& d : diffs) std::printf(" %s", d.c_str());
    std::printf("\n");
    correct = false;
  } else {
    std::printf("  self-check: every cache.*, ssd.cache.* and ingest.* "
                "reading matches the served run\n");
  }
  const std::uint64_t attempted = w.queries + o.extra_queries;
  const std::uint64_t failed =
      std::min(attempted, o.mismatches + static_cast<std::uint64_t>(io_errors));
  report(metrics, {}, correct, attempted, failed);
  return correct ? 0 : 1;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = find_workload(val);
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') a->seconds = 0;
    } else if (key == "--trace") {
      const std::string t = val;
      a->trace = t == "0" ? 0 : t == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->workload != nullptr && have_seed &&
         a->seconds > 0 && a->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_cbslru|lru_baseline|"
                 "live_churn> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    perfbench::pin_to_current_cpu();
    perfbench::HostSpeed host;  // forked first, while the process is small
    return args.trace == 0
               ? run_end_to_end(*args.workload, args.seed, args.seconds, host)
               : run_traced(*args.workload, args.seed, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
