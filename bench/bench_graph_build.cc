// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// bench_graph_build: times Table2DepGraph (BuildDependencyGraph) across
// row counts, arities, and thread counts, and writes the results as JSON
// (default: BENCH_graph_build.json, overridable as argv[1]) so the perf
// trajectory of the pairwise-statistics hot path is tracked PR over PR.
//
// Modes per configuration:
//   * dense     — the default kernel selection (dense strategy dispatch
//                 wherever the cell budget allows)
//   * scalar    — JointKernelDispatch::kScalar: the legacy single-lane
//                 loops, so the vectorized-vs-scalar gain is visible
//   * sparse    — dense_cell_budget = 0, forcing the sparse fallback
//   * seed_ref  — a faithful replica of the original per-pair path (one
//                 JointHistogram hash map per pair, marginals recomputed
//                 per pair), kept here as the fixed baseline the speedups
//                 are measured against
//
// The bench also asserts that dense, scalar, and sparse builds produce
// identical dependency graphs (exact double equality) before reporting.
//
//   DEPMATCH_BENCH_REPS  repetitions per data point (default 5)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "depmatch/common/logging.h"
#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/datagen/bayes_net.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/stats/entropy.h"
#include "depmatch/stats/histogram.h"

namespace depmatch {
namespace {

struct Config {
  size_t rows;
  size_t attrs;
  size_t alphabet;
  size_t threads;
};

struct Sample {
  Config config;
  std::string mode;
  size_t reps;
  double min_ms;
  double mean_ms;
};

// Dependency chain with uniform low/high-cardinality alphabets; the
// 10K x 30 @ alphabet 32 point is the acceptance headline.
Table MakeTable(size_t rows, size_t attrs, size_t alphabet) {
  datagen::BayesNetSpec spec;
  for (size_t i = 0; i < attrs; ++i) {
    datagen::AttributeGenSpec attr;
    attr.name = "a" + std::to_string(i);
    attr.alphabet_size = alphabet;
    if (i > 0) {
      attr.parents = {i - 1};
      attr.noise = 0.3;
    }
    spec.attributes.push_back(attr);
  }
  return datagen::GenerateBayesNet(spec, rows, 2).value();
}

// H = log2(N) - (1/N) sum c*log2(c) over an unordered count map — the
// fold the seed implementation used.
template <typename Map>
double SeedEntropyFromMap(const Map& counts, uint64_t total) {
  if (total == 0) return 0.0;
  double weighted = 0.0;
  for (const auto& [key, count] : counts) {
    double c = static_cast<double>(count);
    weighted += c * std::log2(c);
  }
  double n = static_cast<double>(total);
  double h = std::log2(n) - weighted / n;
  return h < 0.0 ? 0.0 : h;
}

// Replica of the seed BuildDependencyGraph hot path: one hash-map joint
// histogram per pair, both marginal entropies recomputed per pair.
DependencyGraph SeedReferenceBuild(const Table& table) {
  size_t n = table.num_attributes();
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    names.push_back(table.schema().attribute(i).name);
  }
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    matrix[i][i] = EntropyOf(table.column(i));
    for (size_t j = i + 1; j < n; ++j) {
      JointHistogram joint = JointHistogram::FromColumns(
          table.column(i), table.column(j), NullPolicy::kNullAsSymbol);
      uint64_t total = joint.total();
      double mi = 0.0;
      if (total > 0) {
        double hx = SeedEntropyFromMap(joint.x_counts(), total);
        double hy = SeedEntropyFromMap(joint.y_counts(), total);
        double hxy = SeedEntropyFromMap(joint.cells(), total);
        mi = hx + hy - hxy;
        if (mi < 0.0) mi = 0.0;
      }
      matrix[i][j] = mi;
      matrix[j][i] = mi;
    }
  }
  return DependencyGraph::Create(std::move(names), std::move(matrix))
      .value();
}

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Sample Measure(const Table& table, const Config& config,
               const std::string& mode, size_t reps) {
  DependencyGraphOptions options;
  options.num_threads = config.threads;
  if (mode == "sparse") options.stats.dense_cell_budget = 0;
  if (mode == "scalar") {
    options.stats.dispatch = JointKernelDispatch::kScalar;
  }

  Sample sample{config, mode, reps, 1e300, 0.0};
  for (size_t rep = 0; rep < reps; ++rep) {
    double ms = TimeMs([&] {
      if (mode == "seed_ref") {
        DependencyGraph graph = SeedReferenceBuild(table);
        (void)graph;
      } else {
        Result<DependencyGraph> graph = BuildDependencyGraph(table, options);
        DEPMATCH_CHECK(graph.ok());
      }
    });
    sample.min_ms = std::min(sample.min_ms, ms);
    sample.mean_ms += ms;
  }
  sample.mean_ms /= static_cast<double>(reps);
  return sample;
}

// Exact graph comparison: every exact kernel/strategy must agree
// bit-for-bit.
bool GraphsIdentical(const DependencyGraph& a, const DependencyGraph& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      if (a.mi(i, j) != b.mi(i, j)) return false;
    }
  }
  return true;
}

// The committed alphabet-4096 dense minimum before the kernel rework;
// the acceptance bar for the rework is >= 2x below this.
constexpr double kAlphabet4096BaselineMinMs = 428.335;

int Run(const std::string& output_path) {
  size_t reps = 5;
  if (const char* raw = std::getenv("DEPMATCH_BENCH_REPS")) {
    auto parsed = ParseInt64(raw);
    if (parsed.has_value() && *parsed > 0) {
      reps = static_cast<size_t>(*parsed);
    }
  }

  // Row-count sweep, arity sweep, thread sweeps on the two headline
  // shapes (alphabet 32 and the high-cardinality alphabet 4096, whose
  // matrices exceed the static cell budget and exercise the auto-raised
  // dense strategies).
  const std::vector<Config> configs = {
      {1000, 30, 32, 1},    {10000, 10, 32, 1},   {10000, 30, 32, 1},
      {50000, 30, 32, 1},   {10000, 30, 32, 2},   {10000, 30, 32, 4},
      {10000, 30, 32, 8},   {10000, 30, 4096, 1}, {10000, 30, 4096, 2},
      {10000, 30, 4096, 4}, {10000, 30, 4096, 8},
  };

  std::vector<Sample> samples;
  bool all_identical = true;
  double headline_seed_ms = 0.0;
  double headline_dense_ms = 0.0;
  double headline4096_dense_ms = 0.0;

  for (const Config& config : configs) {
    Table table = MakeTable(config.rows, config.attrs, config.alphabet);

    // Correctness gate first: dense (auto dispatch), scalar, and sparse
    // builds must all be bit-identical.
    DependencyGraphOptions dense_options;
    dense_options.num_threads = config.threads;
    DependencyGraphOptions scalar_options = dense_options;
    scalar_options.stats.dispatch = JointKernelDispatch::kScalar;
    DependencyGraphOptions sparse_options = dense_options;
    sparse_options.stats.dense_cell_budget = 0;
    Result<DependencyGraph> dense_graph =
        BuildDependencyGraph(table, dense_options);
    Result<DependencyGraph> scalar_graph =
        BuildDependencyGraph(table, scalar_options);
    Result<DependencyGraph> sparse_graph =
        BuildDependencyGraph(table, sparse_options);
    DEPMATCH_CHECK(dense_graph.ok());
    DEPMATCH_CHECK(scalar_graph.ok());
    DEPMATCH_CHECK(sparse_graph.ok());
    if (!GraphsIdentical(dense_graph.value(), scalar_graph.value()) ||
        !GraphsIdentical(dense_graph.value(), sparse_graph.value())) {
      all_identical = false;
    }

    for (const char* mode : {"dense", "scalar", "sparse", "seed_ref"}) {
      // The seed replica is serial; measuring it under a thread sweep
      // would time a different implementation than the seed shipped.
      if (std::string(mode) == "seed_ref" && config.threads != 1) continue;
      Sample sample = Measure(table, config, mode, reps);
      std::printf("rows=%-6zu attrs=%-3zu alphabet=%-5zu threads=%zu "
                  "%-8s min %8.2f ms   mean %8.2f ms\n",
                  config.rows, config.attrs, config.alphabet, config.threads,
                  mode, sample.min_ms, sample.mean_ms);
      if (config.rows == 10000 && config.attrs == 30 &&
          config.threads == 1) {
        if (config.alphabet == 32) {
          if (sample.mode == "seed_ref") headline_seed_ms = sample.min_ms;
          if (sample.mode == "dense") headline_dense_ms = sample.min_ms;
        } else if (config.alphabet == 4096 && sample.mode == "dense") {
          headline4096_dense_ms = sample.min_ms;
        }
      }
      samples.push_back(std::move(sample));
    }
  }

  double headline_speedup =
      (headline_dense_ms > 0.0) ? headline_seed_ms / headline_dense_ms : 0.0;
  double headline4096_speedup =
      (headline4096_dense_ms > 0.0)
          ? kAlphabet4096BaselineMinMs / headline4096_dense_ms
          : 0.0;
  std::printf("\nheadline (10K rows x 30 attrs, alphabet 32, 1 thread): "
              "seed %.2f ms -> dense %.2f ms = %.2fx speedup\n",
              headline_seed_ms, headline_dense_ms, headline_speedup);
  std::printf("headline (10K rows x 30 attrs, alphabet 4096, 1 thread): "
              "committed baseline %.2f ms -> dense %.2f ms = %.2fx\n",
              kAlphabet4096BaselineMinMs, headline4096_dense_ms,
              headline4096_speedup);
  std::printf("dense/scalar/sparse graphs identical: %s\n",
              all_identical ? "true" : "false");

  std::FILE* out = std::fopen(output_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"graph_build\",\n");
  std::fprintf(out, "  \"timestamp_utc\": \"%s\",\n",
               benchutil::IsoTimestampUtc().c_str());
  benchutil::WriteMachineJson(
      out, benchutil::MakeMachineReport({1, 2, 4, 8}), "  ",
      /*trailing_comma=*/true);
  std::fprintf(out, "  \"dense_sparse_graphs_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"headline\": {\n");
  std::fprintf(out, "    \"config\": \"10000 rows x 30 attrs, alphabet 32, "
                    "1 thread\",\n");
  std::fprintf(out, "    \"seed_ref_min_ms\": %.3f,\n", headline_seed_ms);
  std::fprintf(out, "    \"dense_min_ms\": %.3f,\n", headline_dense_ms);
  std::fprintf(out, "    \"speedup\": %.3f\n", headline_speedup);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"headline_alphabet4096\": {\n");
  std::fprintf(out, "    \"config\": \"10000 rows x 30 attrs, alphabet "
                    "4096, 1 thread\",\n");
  std::fprintf(out, "    \"baseline_min_ms\": %.3f,\n",
               kAlphabet4096BaselineMinMs);
  std::fprintf(out, "    \"dense_min_ms\": %.3f,\n", headline4096_dense_ms);
  std::fprintf(out, "    \"speedup_vs_baseline\": %.3f\n",
               headline4096_speedup);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"rows\": %zu, \"attrs\": %zu, \"alphabet\": %zu, "
                 "\"threads\": %zu, \"mode\": \"%s\", \"reps\": %zu, "
                 "\"min_ms\": %.3f, \"mean_ms\": %.3f}%s\n",
                 s.config.rows, s.config.attrs, s.config.alphabet,
                 s.config.threads, s.mode.c_str(), s.reps, s.min_ms,
                 s.mean_ms, (i + 1 < samples.size()) ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", output_path.c_str());
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace depmatch

int main(int argc, char** argv) {
  std::string output_path =
      (argc > 1) ? argv[1] : "BENCH_graph_build.json";
  return depmatch::Run(output_path);
}
