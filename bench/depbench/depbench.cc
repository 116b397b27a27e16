// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// depbench: runs one workload and prints its metrics, one per line with
// unit and sample count, then the result as a single JSON line:
//
//   depbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--workdir DIR] [--trace-dir DIR]
//   depbench --smoke [--workdir DIR]
//
// Exit status: 0 when every correctness gate passed, 2 when one failed
// (the JSON line then says "correct": false), 1 on a usage error.
// run.sh builds this binary and runs every workload; README.md documents
// the workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "depmatch/common/string_util.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace depbench {
namespace {

using depmatch::StrFormat;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Tracer&, RunReport&);
  // What the generic end-to-end names mean on this workload.
  std::map<std::string, std::string> aliases;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* const workloads = new std::vector<Workload>{
      {"pair_match",
       RunPairMatch,
       {{"op_p50_ms", "match_p50_ms"},
        {"op_tail_ms", "match_p80_ms"},
        {"op2_p50_ms", "census_match_p50_ms"},
        {"ops_per_s", "matches_per_s"}}},
      {"serve_search",
       RunServeSearch,
       {{"op_p50_ms", "search_p50_ms"},
        {"op_tail_ms", "search_p80_ms"},
        {"op2_p50_ms", "inline_search_p50_ms"},
        {"ops_per_s", "search_sat_qps"}}},
      {"serve_ingest",
       RunServeIngest,
       {{"op_p50_ms", "append_p50_ms"},
        {"op_tail_ms", "append_p80_ms"},
        {"op2_p50_ms", "ingest_search_p50_ms"},
        {"ops_per_s", "ingest_sat_qps"}}},
      {"catalog_100k",
       RunCatalog100k,
       {{"op_p50_ms", "scale_search_p50_ms"},
        {"op_tail_ms", "scale_search_p80_ms"},
        {"op2_p50_ms", "scale_cold_query_ms"},
        {"ops_per_s", "scale_searches_per_s"}}},
  };
  return *workloads;
}

const std::vector<std::string>& ResultNames(const RunConfig& config) {
  return config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
}

// Fails the run when a required metric is missing or not a number.
void RequireMetrics(const std::vector<std::string>& names, RunReport& report) {
  for (const std::string& name : names) {
    const Metric* metric = report.Find(name);
    if (metric == nullptr) {
      report.Fail("metric " + name + " was not measured");
    } else if (!std::isfinite(metric->value)) {
      report.Fail("metric " + name + " is not finite");
    }
  }
}

void PrintMetric(const Workload& workload, const Metric& metric) {
  auto alias = workload.aliases.find(metric.name);
  std::string label = alias == workload.aliases.end()
                          ? metric.name
                          : alias->second + " (" + metric.name + ")";
  std::printf("%-44s %14s %-6s", label.c_str(), FormatDouble(metric.value).c_str(),
              metric.unit.c_str());
  if (metric.tail_pct > 50.0) {
    std::printf(" p%g %s", metric.tail_pct, FormatDouble(metric.tail_value).c_str());
  }
  if (metric.samples > 0) std::printf(" n=%zu", metric.samples);
  std::printf("\n");
}

// The result line's metrics (`names`) first, then the rest under their
// own heading.
void PrintMetrics(const Workload& workload, const RunReport& report,
                  const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (const Metric* metric = report.Find(name)) PrintMetric(workload, *metric);
  }
  bool heading = false;
  for (const Metric& metric : report.metrics()) {
    if (std::find(names.begin(), names.end(), metric.name) != names.end()) continue;
    if (!heading) std::printf("-- not in the result line:\n");
    heading = true;
    PrintMetric(workload, metric);
  }
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
}

// Runs one workload in `config.workdir` (created here and removed after).
RunReport RunWorkload(const Workload& workload, const RunConfig& config,
                      const std::string& trace_dir) {
  RunReport report;
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) {
    report.Fail("cannot create " + config.workdir + ": " + ec.message());
    return report;
  }
  Tracer tracer(config.trace);
  workload.run(config, tracer, report);
  std::filesystem::remove_all(config.workdir, ec);
  RequireMetrics(ResultNames(config), report);
  if (config.trace && !trace_dir.empty()) {
    std::filesystem::create_directories(trace_dir, ec);
    if (!tracer.Write(trace_dir, workload.name)) {
      report.Fail("cannot write the trace under " + trace_dir);
    } else {
      std::printf("trace: %s/trace_%s.json (+ .summary.json)\n", trace_dir.c_str(),
                  workload.name);
    }
  }
  return report;
}

// The percentile helper's own gate: nearest-rank p90 of 1..100 is 90,
// and p99 of 100 samples has one sample beyond it, so it is refused.
bool SelfTestPercentiles() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  PercentileResult p90 = Percentile(samples, 90.0, "selftest_p90");
  PercentileResult p99 = Percentile(samples, 99.0, "selftest_p99");
  bool ok = p90.ok && p90.value == 90.0 && !p99.ok;
  std::printf("percentile self-test: p90(1..100) = %g, p99 of 100 %s: %s\n", p90.value,
              p99.ok ? "accepted" : "refused", ok ? "ok" : "FAILED");
  return ok;
}

int Smoke(const std::string& workdir) {
  bool ok = SelfTestPercentiles();
  for (const Workload& workload : Workloads()) {
    for (bool trace : {false, true}) {
      RunConfig config;
      config.smoke = true;
      config.trace = trace;
      config.seconds = 0.2;
      config.workdir = StrFormat("%s/%s.%d", workdir.c_str(), workload.name, getpid());
      RunReport report = RunWorkload(workload, config, "");
      std::printf("smoke %-13s trace=%d: %s (%llu ops)\n", workload.name, trace ? 1 : 0,
                  report.correct() ? "ok" : "FAILED",
                  static_cast<unsigned long long>(report.attempted()));
      if (!report.correct()) PrintMetrics(workload, report, ResultNames(config));
      ok = ok && report.correct();
    }
  }
  return ok ? 0 : 2;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "depbench: %s\n"
               "usage: depbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--workdir DIR] [--trace-dir DIR]\n"
               "       depbench --smoke [--workdir DIR]\n"
               "workloads: pair_match serve_search serve_ingest catalog_100k\n",
               message);
  return 1;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload_name, trace_dir, workdir = "depbench_work";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      workload_name = v;
    } else if (arg == "--seed") {
      auto seed = depmatch::ParseInt64(v);
      if (!seed.has_value() || *seed < 0) return Usage("--seed takes a whole number");
      config.seed = static_cast<uint64_t>(*seed);
    } else if (arg == "--seconds") {
      auto seconds = depmatch::ParseDouble(v);
      if (!seconds.has_value() || !(*seconds > 0.0)) return Usage("--seconds must be > 0");
      config.seconds = *seconds;
    } else if (arg == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") return Usage("--trace takes 0 or 1");
      config.trace = std::string(v) == "1";
    } else if (arg == "--workdir") {
      workdir = v;
    } else if (arg == "--trace-dir") {
      trace_dir = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (smoke) return Smoke(workdir);

  for (const Workload& workload : Workloads()) {
    if (workload_name != workload.name) continue;
    config.workdir = StrFormat("%s/%s.%d", workdir.c_str(), workload.name, getpid());
    RunReport report = RunWorkload(workload, config, trace_dir);
    std::printf("%s seed=%llu seconds=%g trace=%d attempted=%llu failed=%llu\n",
                workload.name, static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0,
                static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()));
    PrintMetrics(workload, report, ResultNames(config));
    std::printf("%s\n", report.ResultJson(ResultNames(config)).c_str());
    return report.correct() ? 0 : 2;
  }
  return Usage(("unknown workload '" + workload_name + "'").c_str());
}

}  // namespace
}  // namespace depbench

int main(int argc, char** argv) { return depbench::Main(argc, argv); }
