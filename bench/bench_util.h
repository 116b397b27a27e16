// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared setup for the figure-reproduction benches: builds the paper's
// two dataset pairs —
//   * "Lab Exam 1" / "Lab Exam 2": the synthetic thrombosis table range-
//     partitioned by exam date into two halves, and
//   * census "NY" / "CA": two independent samples of the synthetic census
//     distribution —
// samples the requested number of tuples, restricts to 30 randomly chosen
// attributes (the paper's experimental universe), and returns dependency
// graphs. Also provides the method table (MI/ET x Euclidean/Normal) and
// environment-variable knobs so the benches can be scaled down:
//
//   DEPMATCH_ITERS   iterations per data point (default: per-bench)
//   DEPMATCH_THREADS worker threads for iterations (default 1)

#ifndef DEPMATCH_BENCH_BENCH_UTIL_H_
#define DEPMATCH_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/matching.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace benchutil {

struct Knobs {
  size_t iterations = 50;
  size_t num_threads = 1;
};

// Reads DEPMATCH_ITERS / DEPMATCH_THREADS, falling back to the defaults.
Knobs KnobsFromEnv(size_t default_iterations);

// A pair of dependency graphs over the same 30-attribute universe.
struct GraphPair {
  DependencyGraph g1;  // Lab Exam 1 / census NY
  DependencyGraph g2;  // Lab Exam 2 / census CA
};

// The two tables underlying a graph pair (for fragment printing).
struct TablePair {
  Table t1;
  Table t2;
};

// Builds the lab-exam pair at `sample_rows` tuples per half.
// Deterministic in (sample_rows, seed).
GraphPair BuildLabPair(size_t sample_rows, uint64_t seed);
TablePair BuildLabTables(size_t sample_rows, uint64_t seed);

// Builds the census NY/CA pair at `sample_rows` tuples per state.
GraphPair BuildCensusPair(size_t sample_rows, uint64_t seed);
TablePair BuildCensusTables(size_t sample_rows, uint64_t seed);

// The four matching methods compared throughout the paper's Figures 5-6.
struct MethodSpec {
  const char* label;
  MetricKind metric;
  double alpha;
};
// {"MI Euclidean", "MI Normal(3.0)", "ET Euclidean", "ET Normal(3.0)"}.
const std::vector<MethodSpec>& StandardMethods();

// Default number of attributes in the experimental universe (the paper
// uses 30 randomly chosen attributes of each dataset).
inline constexpr size_t kUniverseSize = 30;

// Machine identification for bench JSON output. `detected_hardware_threads`
// is what std::thread::hardware_concurrency() reports (0 when unknown;
// containers may report fewer threads than a run actually uses), and
// `exercised_threads` lists the thread counts the bench really ran —
// the two must be recorded separately, not conflated (a historical
// BENCH_catalog.json recorded hardware_threads=1 for a 2-thread run).
struct MachineReport {
  std::string hostname;
  unsigned detected_hardware_threads = 0;
  std::vector<size_t> exercised_threads;
};

// Fills hostname + detected threads, sorting and deduplicating the
// exercised list.
MachineReport MakeMachineReport(std::vector<size_t> exercised_threads);

// Writes the report as a JSON "machine" object (including compiler and
// build type), indented by `indent`, with a trailing comma iff
// `trailing_comma`.
void WriteMachineJson(std::FILE* out, const MachineReport& report,
                      const char* indent, bool trailing_comma);

// UTC timestamp "YYYY-MM-DDTHH:MM:SSZ" for bench provenance headers.
std::string IsoTimestampUtc();

// Nearest-rank percentile of `samples` (pct in (0, 100]): the value at
// rank ceil(pct/100 * n), so p50 of [1,2,3,4] is 2 and p100 is the max.
// Sorts a copy; returns 0.0 on an empty vector.
double PercentileMs(std::vector<double> samples, double pct);

// Wall-clock latency digest shared by the serving/load benches so each
// does not re-implement timing stats (count, min/mean/max, p50/p99).
struct LatencySummary {
  size_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

// Digest of `samples` (milliseconds). All fields 0 when empty.
LatencySummary SummarizeLatencies(std::vector<double> samples);

// Deletes a sharded store written by WriteShardedCatalog
// (core/sharded_store.h): its `num_segments` segment files, its
// manifest, and then the directory.
void RemoveStore(const std::string& dir, size_t num_segments);

}  // namespace benchutil
}  // namespace depmatch

#endif  // DEPMATCH_BENCH_BENCH_UTIL_H_
