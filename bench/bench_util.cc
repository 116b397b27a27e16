#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include <unistd.h>

#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/datagen/datasets.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/table/table_ops.h"

namespace depmatch {
namespace benchutil {
namespace {

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  auto parsed = ParseInt64(raw);
  if (!parsed.has_value() || *parsed <= 0) return fallback;
  return static_cast<size_t>(*parsed);
}

// Projects `table` onto `kUniverseSize` attributes drawn (seeded) from
// `pool`, then samples `sample_rows` tuples.
Table UniverseSample(const Table& table, const std::vector<size_t>& pool,
                     size_t sample_rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> chosen_positions =
      rng.SampleWithoutReplacement(pool.size(),
                                   std::min(kUniverseSize, pool.size()));
  std::vector<size_t> attrs;
  attrs.reserve(chosen_positions.size());
  for (size_t position : chosen_positions) attrs.push_back(pool[position]);
  Result<Table> projected = ProjectColumns(table, attrs);
  DEPMATCH_CHECK(projected.ok());
  return SampleRows(projected.value(), sample_rows, rng);
}

DependencyGraph BuildGraph(const Table& table) {
  Result<DependencyGraph> graph = BuildDependencyGraph(table);
  DEPMATCH_CHECK(graph.ok());
  return std::move(graph).value();
}

}  // namespace

Knobs KnobsFromEnv(size_t default_iterations) {
  Knobs knobs;
  knobs.iterations = EnvSizeOr("DEPMATCH_ITERS", default_iterations);
  knobs.num_threads = EnvSizeOr("DEPMATCH_THREADS", 1);
  return knobs;
}

TablePair BuildLabTables(size_t sample_rows, uint64_t seed) {
  datagen::LabExamConfig config;
  config.num_rows = 50000;
  Result<Table> lab = datagen::MakeLabExamTable(config, seed);
  DEPMATCH_CHECK(lab.ok());
  // Range-partition by exam date (column 0), as the paper does.
  Result<RangePartitionResult> parts =
      RangePartitionAtMedian(lab.value(), 0);
  DEPMATCH_CHECK(parts.ok());

  // The matchable universe is the 44 test attributes (no date).
  std::vector<size_t> tests;
  for (size_t c = 1; c < lab->num_attributes(); ++c) tests.push_back(c);

  TablePair pair;
  // Both halves use the SAME attribute subset (same seed for the draw)
  // but independent row samples.
  pair.t1 = UniverseSample(parts->low, tests, sample_rows, seed ^ 0x11);
  pair.t2 = UniverseSample(parts->high, tests, sample_rows, seed ^ 0x11);
  return pair;
}

GraphPair BuildLabPair(size_t sample_rows, uint64_t seed) {
  TablePair tables = BuildLabTables(sample_rows, seed);
  return {BuildGraph(tables.t1), BuildGraph(tables.t2)};
}

TablePair BuildCensusTables(size_t sample_rows, uint64_t seed) {
  datagen::CensusConfig config;
  config.num_rows = 12000;
  config.epoch = 0;
  Result<Table> ny = datagen::MakeCensusTable(config, seed * 2 + 1);
  config.epoch = 1;
  Result<Table> ca = datagen::MakeCensusTable(config, seed * 2 + 2);
  DEPMATCH_CHECK(ny.ok());
  DEPMATCH_CHECK(ca.ok());

  std::vector<size_t> pool;
  for (size_t c = 0; c < ny->num_attributes(); ++c) pool.push_back(c);

  TablePair pair;
  pair.t1 = UniverseSample(ny.value(), pool, sample_rows, seed ^ 0x22);
  pair.t2 = UniverseSample(ca.value(), pool, sample_rows, seed ^ 0x22);
  return pair;
}

GraphPair BuildCensusPair(size_t sample_rows, uint64_t seed) {
  TablePair tables = BuildCensusTables(sample_rows, seed);
  return {BuildGraph(tables.t1), BuildGraph(tables.t2)};
}

MachineReport MakeMachineReport(std::vector<size_t> exercised_threads) {
  MachineReport report;
  char buffer[256] = {0};
  report.hostname =
      gethostname(buffer, sizeof(buffer) - 1) == 0 ? buffer : "unknown";
  report.detected_hardware_threads = std::thread::hardware_concurrency();
  std::sort(exercised_threads.begin(), exercised_threads.end());
  exercised_threads.erase(
      std::unique(exercised_threads.begin(), exercised_threads.end()),
      exercised_threads.end());
  report.exercised_threads = std::move(exercised_threads);
  return report;
}

void WriteMachineJson(std::FILE* out, const MachineReport& report,
                      const char* indent, bool trailing_comma) {
  std::fprintf(out, "%s\"machine\": {\n", indent);
  std::fprintf(out, "%s  \"hostname\": \"%s\",\n", indent,
               report.hostname.c_str());
  std::fprintf(out, "%s  \"detected_hardware_threads\": %u,\n", indent,
               report.detected_hardware_threads);
  std::fprintf(out, "%s  \"exercised_threads\": [", indent);
  for (size_t i = 0; i < report.exercised_threads.size(); ++i) {
    std::fprintf(out, "%s%zu", i > 0 ? ", " : "",
                 report.exercised_threads[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "%s  \"compiler\": \"%s\",\n", indent, __VERSION__);
#ifdef NDEBUG
  std::fprintf(out, "%s  \"build_type\": \"Release\"\n", indent);
#else
  std::fprintf(out, "%s  \"build_type\": \"Debug\"\n", indent);
#endif
  std::fprintf(out, "%s}%s\n", indent, trailing_comma ? "," : "");
}

std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  char buffer[32];
  std::tm utc;
  gmtime_r(&now, &utc);
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

double PercentileMs(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (pct <= 0.0) return samples.front();
  if (pct >= 100.0) return samples.back();
  // Nearest-rank: the value at rank ceil(pct/100 * n), 1-based.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary summary;
  if (samples.empty()) return summary;
  summary.count = samples.size();
  std::sort(samples.begin(), samples.end());
  summary.min_ms = samples.front();
  summary.max_ms = samples.back();
  double total = 0.0;
  for (double sample : samples) total += sample;
  summary.mean_ms = total / static_cast<double>(samples.size());
  summary.p50_ms = PercentileMs(samples, 50.0);
  summary.p99_ms = PercentileMs(samples, 99.0);
  return summary;
}

void RemoveStore(const std::string& dir, size_t num_segments) {
  for (size_t s = 0; s < num_segments; ++s) {
    std::remove(StrFormat("%s/segment-%05zu.seg", dir.c_str(), s).c_str());
  }
  std::remove((dir + "/MANIFEST.dms").c_str());
  ::rmdir(dir.c_str());
}

const std::vector<MethodSpec>& StandardMethods() {
  static const std::vector<MethodSpec>& methods =
      *new std::vector<MethodSpec>{
          {"MI Euclidean", MetricKind::kMutualInfoEuclidean, 3.0},
          {"MI Normal(3.0)", MetricKind::kMutualInfoNormal, 3.0},
          {"ET Euclidean", MetricKind::kEntropyEuclidean, 3.0},
          {"ET Normal(3.0)", MetricKind::kEntropyNormal, 3.0},
      };
  return methods;
}

}  // namespace benchutil
}  // namespace depmatch
