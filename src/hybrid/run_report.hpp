// Machine-readable run reports (DESIGN.md §9).
//
// One JSON document per run: a schema header, the open-loop traffic
// and replication sections when the run has them, and a dump of the
// metrics registry. The registry dump is the only copy of every
// simulator metric (latency quantiles, throughput, the Table-I census,
// per-tier hit ratios, flash wear and write amplification, faults,
// ingest, trace stages), so each is defined once, at registration.
// Every bench emits one, and scripts/check_bench_json.py checks the
// registry shape plus invariants over metric names, so runs stay
// comparable across configurations.
#pragma once

#include <string>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/arrival.hpp"

namespace ssdse {

/// Render the full telemetry report from a registry snapshot: one
/// system's, or a cluster's merged over every shard, replica and the
/// broker (SearchCluster::telemetry_snapshot()). `tracing` records
/// whether per-query trace spans were collected. When `traffic` is
/// non-null the report gains the open-loop sections (DESIGN.md §14):
/// "traffic" (offered/served/shed conservation), "windows" (per-window
/// quantile series), "slo" (per-spec verdicts), and "attribution"
/// (per-stage tail table + worst-N samples). When `replication` is
/// non-null (cluster runs) the report gains the "replication" section
/// (DESIGN.md §15): policy knobs + retry/hedge/failover accounting,
/// the deterministic backoff schedule, and per-replica-slot health.
std::string render_run_report(const telemetry::RegistrySnapshot& metrics,
                              bool tracing, const std::string& run_name,
                              const TrafficResult* traffic = nullptr,
                              const ReplicationSnapshot* replication = nullptr);

/// The report of one system: its registry snapshot and tracer state.
std::string render_run_report(const SearchSystem& sys,
                              const std::string& run_name);

/// Write render_run_report() output to `path`; returns false on I/O
/// failure.
bool write_run_report(const telemetry::RegistrySnapshot& metrics,
                      bool tracing, const std::string& run_name,
                      const std::string& path,
                      const TrafficResult* traffic = nullptr,
                      const ReplicationSnapshot* replication = nullptr);
bool write_run_report(const SearchSystem& sys, const std::string& run_name,
                      const std::string& path);

}  // namespace ssdse
