// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The metric names depbench reports (kept in the same order as
// BENCHMARK.json), the set-up time, and the per-layer metrics of a
// traced run.

#include <numeric>

#include "workloads.h"

namespace depbench {

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string>* const names = new std::vector<std::string>{
      "setup_s",   "peak_rss_mb", "op_p50_ms",      "op_tail_ms",
      "op2_p50_ms", "ops_per_s",  "match_precision",
  };
  return *names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  // Timings here are of calls every workload makes, so none reads 0 on
  // every run of a workload; a layer a workload never enters shows as 0
  // in its share, counts, and rates instead.
  static const std::vector<std::string>* const names = new std::vector<std::string>{
      "table.self_share",
      "table.csv_mb_per_s",
      "graph.self_share",
      "graph.pairs",
      "graph.cells_per_s",
      "graph.refreshed_columns",
      "match.self_share",
      "match.graphmatch_ms",
      "match.graphmatch_tail_ms",
      "match.calls",
      "match.nodes_explored",
      "match.budget_exhausted",
      "core.self_share",
      "core.call_ms",
      "core.searches",
      "core.entries_searched",
      "core.entries_pruned",
      "core.entries_incompatible",
      "core.bound_evaluations",
      "core.cluster_bound_evaluations",
      "core.useful_ratio",
      "service.self_share",
      "service.requests",
      "service.request_bytes",
      "service.response_bytes",
      "service.codec_mb_per_s",
      "service.overhead_share",
      "service.batch_size_mean",
      "service.max_queue_depth",
      "service.shed_overload",
      "service.shed_deadline",
      "service.stat_cache_hit_ratio",
      "gen.late_gap_ratio",
      "gen.inflight_max",
      "trace.replay_coverage",
      "trace.overhead_ratio",
  };
  return *names;
}

void AddSetupTime(RunReport& report, const std::function<void()>& setup,
                  const std::function<void()>& teardown) {
  constexpr size_t kMinRuns = 3, kMaxRuns = 9;
  constexpr double kBudgetS = 2.0;
  std::vector<double> seconds;
  double total_s = 0.0;
  CpuRotation cpus;
  while (seconds.size() < kMinRuns || (total_s < kBudgetS && seconds.size() < kMaxRuns)) {
    if (!seconds.empty() && teardown) teardown();
    cpus.Next();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsSince(start) / 1000.0);
    total_s += seconds.back();
  }
  report.Add("setup_s", Median(seconds), "s", seconds.size());
}

void LayerCounters::AddGraphWork(const depmatch::Table& table, double ms) {
  const double n = static_cast<double>(table.num_attributes());
  graph_pairs += n * (n - 1.0) / 2.0;
  graph_cells += n * (n - 1.0) / 2.0 * static_cast<double>(table.num_rows());
  graph_build_ms += ms;
}

double LayerCounters::AddSearch(const depmatch::CatalogSearchStats& stats,
                                double search_ms, const std::vector<double>& ranked_ms) {
  searches += 1;
  entries_searched += static_cast<double>(stats.entries_searched);
  entries_pruned += static_cast<double>(stats.entries_pruned);
  entries_incompatible += static_cast<double>(stats.entries_incompatible);
  bound_evaluations += static_cast<double>(stats.bound_evaluations);
  cluster_bound_evaluations += static_cast<double>(stats.cluster_bound_evaluations);
  ranked += static_cast<double>(ranked_ms.size());
  // Entries searched but not ranked are charged at this search's median
  // per-entry cost: the search reports how many there were, not which.
  double matched_ms = std::accumulate(ranked_ms.begin(), ranked_ms.end(), 0.0);
  const double unranked = static_cast<double>(stats.entries_searched) -
                          static_cast<double>(ranked_ms.size());
  if (unranked > 0 && !ranked_ms.empty()) matched_ms += unranked * Median(ranked_ms);
  search_self_ms.push_back(search_ms - matched_ms);
  return matched_ms;
}

namespace {

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void AddLayerMetrics(const Tracer& tracer, const LayerCounters& c,
                     RunReport& report) {
  // Self time shares of every traced op, by layer. A layer a workload
  // never enters has share 0, and its counts and rates read 0 too.
  std::array<double, kNumLayers> self = tracer.SelfMsByLayer();
  const double total = std::accumulate(self.begin(), self.end(), 0.0);
  auto share = [&](Layer layer) { return Ratio(self[static_cast<size_t>(layer)], total); };
  // p50 and supported tail of one public call, from its spans.
  auto timing = [&](const char* metric, const char* span) {
    report.AddTiming(metric, tracer.DurationsMs(span));
  };
  auto codec_us = [&](const char* metric, const char* span) {
    report.AddTiming(metric, tracer.DurationsMs(span), "us", 1000.0);
  };

  report.Add("table.self_share", share(Layer::kTable), "ratio");
  report.Add("table.csv_mb_per_s", Ratio(c.csv_bytes / 1e6, c.csv_ms / 1000.0), "MB/s");
  timing("table.csv_parse_ms", "table.read_csv");

  report.Add("graph.self_share", share(Layer::kGraph), "ratio");
  report.Add("graph.pairs", c.graph_pairs, "count");
  report.Add("graph.cells_per_s", Ratio(c.graph_cells, c.graph_build_ms / 1000.0), "1/s");
  report.Add("graph.refreshed_columns", c.refreshed_columns, "count");
  timing("graph.build_ms", "graph.build");
  timing("graph.create_ms", "graph.create");
  timing("graph.append_ms", "graph.append");
  timing("graph.refresh_ms", "graph.refresh");

  const std::vector<double> graphmatch_ms = tracer.DurationsMs("match.graphmatch");
  report.Add("match.self_share", share(Layer::kMatch), "ratio");
  report.AddTiming("match.graphmatch_ms", graphmatch_ms);
  report.Add("match.graphmatch_tail_ms", LargestSupportedTail(graphmatch_ms).value, "ms",
             graphmatch_ms.size());
  report.Add("match.calls", c.graphmatch_calls, "count");
  report.Add("match.nodes_explored", Ratio(c.nodes_explored, c.graphmatch_calls), "count");
  report.Add("match.budget_exhausted", c.budget_exhausted, "count");

  // The workload's top-level call into core: MatchTables in pair_match,
  // a catalog search everywhere else.
  std::vector<double> core_call_ms = tracer.DurationsMs("core.match_tables");
  for (double ms : tracer.DurationsMs("core.search")) core_call_ms.push_back(ms);
  report.Add("core.self_share", share(Layer::kCore), "ratio");
  report.AddTiming("core.call_ms", core_call_ms);
  report.Add("core.searches", c.searches, "count");
  report.Add("core.entries_searched", Ratio(c.entries_searched, c.searches), "count");
  report.Add("core.entries_pruned", Ratio(c.entries_pruned, c.searches), "count");
  report.Add("core.entries_incompatible", Ratio(c.entries_incompatible, c.searches), "count");
  report.Add("core.bound_evaluations", Ratio(c.bound_evaluations, c.searches), "count");
  report.Add("core.cluster_bound_evaluations",
             Ratio(c.cluster_bound_evaluations, c.searches), "count");
  report.Add("core.useful_ratio", Ratio(c.ranked, c.entries_searched), "ratio");
  report.AddTiming("core.self_ms_est", c.search_self_ms);
  timing("core.store_open_ms", "core.store_open");
  timing("core.metadata_ms", "core.metadata");
  timing("core.store_write_ms", "core.store_write");
  timing("core.index_build_ms", "core.index_build");
  timing("core.catalog_copy_ms", "core.catalog_copy");
  timing("core.catalog_release_ms", "core.catalog_release");
  timing("core.update_entry_ms", "core.update_entry");

  double codec_ms = 0.0;
  for (const char* span : {"service.encode_request", "service.decode_request",
                           "service.encode_response", "service.decode_response"}) {
    for (double ms : tracer.DurationsMs(span)) codec_ms += ms;
  }
  // Each frame is encoded once and decoded once.
  const double codec_mb = 2.0 * (c.request_bytes + c.response_bytes) / 1e6;
  report.Add("service.self_share", share(Layer::kService), "ratio");
  report.Add("service.requests", c.requests, "count");
  report.Add("service.request_bytes", Ratio(c.request_bytes, c.requests), "B");
  report.Add("service.response_bytes", Ratio(c.response_bytes, c.requests), "B");
  report.Add("service.codec_mb_per_s", Ratio(codec_mb, codec_ms / 1000.0), "MB/s");
  report.Add("service.overhead_share", Median(c.overhead_share), "ratio",
             c.overhead_share.size());
  report.Add("service.batch_size_mean", Ratio(c.batched_requests, c.batches), "count");
  report.Add("service.max_queue_depth", c.max_queue_depth, "count");
  report.Add("service.shed_overload", c.shed_overload, "count");
  report.Add("service.shed_deadline", c.shed_deadline, "count");
  report.Add("service.stat_cache_hit_ratio",
             Ratio(c.stat_cache_hits, c.stat_cache_lookups), "ratio");
  timing("service.publish_ms", "service.publish");
  codec_us("service.encode_request_us", "service.encode_request");
  codec_us("service.decode_request_us", "service.decode_request");
  codec_us("service.encode_response_us", "service.encode_response");
  codec_us("service.decode_response_us", "service.decode_response");
  for (const auto& [type, ms] : c.execute_ms) {
    report.AddTiming("service.execute_ms." + type, ms);
  }
  for (const auto& [type, ms] : c.overhead_ms) {
    report.AddTiming("service.overhead_ms." + type, ms);
  }

  const SupportedTail late = LargestSupportedTail(c.late_ms);
  report.Add("gen.late_gap_ratio", Ratio(late.value, c.gap_ms), "ratio", c.late_ms.size());
  report.Add("gen.inflight_max", c.inflight_max, "count");
  report.AddTiming("gen.late_ms", c.late_ms);

  report.Add("trace.replay_coverage", Median(c.coverage), "ratio", c.coverage.size());
  report.Add("trace.overhead_ratio", Ratio(c.traced_p50_ms, c.untraced_p50_ms), "ratio");
}

}  // namespace depbench
