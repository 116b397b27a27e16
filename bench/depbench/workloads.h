// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The four depbench workloads. Each one sets up its inputs from the
// seed (several times, reporting the median set-up time), measures for
// the configured number of seconds, checks every output it can against
// a reference, and fills a RunReport with the end-to-end metrics (and,
// in a traced run, the per-layer metrics). README.md says why each
// workload exists and which layer each metric should move.

#ifndef DEPMATCH_BENCH_DEPBENCH_WORKLOADS_H_
#define DEPMATCH_BENCH_DEPBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "depmatch/core/graph_catalog.h"
#include "depmatch/table/table.h"
#include "report.h"
#include "trace.h"

namespace depbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Tiny sizes on the same code paths (the ctest smoke run).
  bool smoke = false;
  // Scratch directory for this run's inputs; created and removed by the
  // caller.
  std::string workdir;

  // The percentile op_tail_ms reports: p80, because on the reference
  // host (a shared VM) a stall of a few seconds moved p90 by up to 30%
  // between runs. Smoke runs are too short to support a tail, so they
  // report the median on the same code path.
  double tail_pct() const { return smoke ? 50.0 : 80.0; }
};

// Share of a traced run's seconds spent untraced first, so the tracing
// overhead is measured against the same inputs in the same process.
inline constexpr double kUntracedShare = 1.0 / 3.0;

// Runs `setup` several times and adds the median duration as setup_s:
// at least 3 times, and again while the runs so far took under 2 s in
// all (at most 9), so a cheap set-up's median rests on more runs.
// `teardown`, when given, runs untimed between two set-ups; the last
// set-up's state is the one the workload measures.
void AddSetupTime(RunReport& report, const std::function<void()>& setup,
                  const std::function<void()>& teardown = {});

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end", same order). What "op" and "op2" are differs by
// workload; README.md has the table.
const std::vector<std::string>& EndToEndMetricNames();
// The per-layer metrics of a traced run's result line (BENCHMARK.json
// "per_layer", same order). AddLayerMetrics also adds the timings of
// calls only some workloads make; those are printed, not in the line.
const std::vector<std::string>& PerLayerMetricNames();

void RunPairMatch(const RunConfig& config, Tracer& tracer, RunReport& report);
void RunServeSearch(const RunConfig& config, Tracer& tracer, RunReport& report);
void RunServeIngest(const RunConfig& config, Tracer& tracer, RunReport& report);
void RunCatalog100k(const RunConfig& config, Tracer& tracer, RunReport& report);

// Per-layer counters a workload accumulates while replaying; turned into
// the per-layer metrics by AddLayerMetrics, together with the durations
// of the tracer's spans (layers a workload never enters report 0).
struct LayerCounters {
  // table: CSV bytes parsed and the time spent parsing them.
  double csv_bytes = 0.0;
  double csv_ms = 0.0;
  // graph: column pairs counted, cells (rows x pairs) counted, and the
  // time spent counting them (cold or incremental); incremental refreshes.
  double graph_pairs = 0.0;
  double graph_cells = 0.0;
  double graph_build_ms = 0.0;
  double refreshed_columns = 0.0;
  // match: every GraphMatch call replayed (its time is in the spans).
  double graphmatch_calls = 0.0;
  double nodes_explored = 0.0;
  double budget_exhausted = 0.0;
  // core: catalog searches.
  double searches = 0.0;
  double entries_searched = 0.0;
  double entries_pruned = 0.0;
  double entries_incompatible = 0.0;
  double bound_evaluations = 0.0;
  double cluster_bound_evaluations = 0.0;
  double ranked = 0.0;
  // Per search: its time minus its entries' GraphMatch calls.
  std::vector<double> search_self_ms;
  // service: wire sizes, direct re-executions of served reads against
  // the snapshot they name and the served latency they leave over, by
  // request type, and the dispatcher's counters (deltas of Stats()).
  double requests = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  std::map<std::string, std::vector<double>> execute_ms;
  std::map<std::string, std::vector<double>> overhead_ms;
  // (served - direct) / served, every type.
  std::vector<double> overhead_share;
  double batches = 0.0;
  double batched_requests = 0.0;
  double max_queue_depth = 0.0;
  double shed_overload = 0.0;
  double shed_deadline = 0.0;
  double stat_cache_hits = 0.0;
  double stat_cache_lookups = 0.0;
  // gen: open-loop sender lateness and inter-arrival gap (ms).
  std::vector<double> late_ms;
  double gap_ms = 0.0;
  double inflight_max = 0.0;
  // Replay coverage (replayed pieces / top-level call), one per op.
  std::vector<double> coverage;
  // Untraced and traced medians of the workload's main op.
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;

  // Counts one Table2DepGraph pass over `table` (a cold build, or an
  // incremental pass over appended rows) that took `ms`.
  void AddGraphWork(const depmatch::Table& table, double ms);

  // Counts one replayed catalog search that took `search_ms` and whose
  // ranked hits' GraphMatch calls took `ranked_ms`. Returns the time its
  // GraphMatch calls account for, unranked entries included.
  double AddSearch(const depmatch::CatalogSearchStats& stats, double search_ms,
                   const std::vector<double>& ranked_ms);
};

void AddLayerMetrics(const Tracer& tracer, const LayerCounters& counters,
                     RunReport& report);

}  // namespace depbench

#endif  // DEPMATCH_BENCH_DEPBENCH_WORKLOADS_H_
