// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// bench_catalog_scale: web-scale catalog search over synthetic corpora
// of 1K / 10K / 100K dependency graphs (datagen/graph_corpus.h). For
// each corpus size it measures the full catalog lifecycle —
//
//   build        generate + insert every entry (signatures computed)
//   index        CatalogTieredIndex construction
//   save         sharded store write
//   load         ShardedCatalogStore::Open (O(1): maps the manifest and
//                verifies the fixed-size header) and the first query on
//                a fresh store (which pays the lazy metadata + signature
//                materialization)
//   search       warm tiered+sharded top-k latency (p50/p99/min over
//                repetitions) with prune rate and bound-evaluation
//                counts, against the flat prefilter's O(corpus) bound
//                pass on the same entries
//
// Before timing, every mode — in-memory flat, in-memory tiered, and
// sharded tiered, at 1/2/8 threads — must return the identical top-k,
// entry for entry and bit-for-bit in every ranking key; at small sizes
// the no-prefilter brute force joins the comparison. The index and the
// store are required to be unobservable in the results.
//
// The scaling claims to look for in BENCH_catalog_scale.json:
//   * per-query bound evaluations grow sublinearly in corpus size
//     (tiered) while the flat pass grows linearly, and
//   * sharded open time stays flat across corpus sizes.
//
//   DEPMATCH_BENCH_REPS  search repetitions per size (default 9)
//   --smoke              tiny corpora, no JSON unless a path is given

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "depmatch/common/logging.h"
#include "depmatch/common/string_util.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/graph_corpus.h"

namespace depmatch {
namespace {

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Percentile(std::vector<double> samples, double percent) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = percent / 100.0 * static_cast<double>(samples.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

// Band fractions scale inversely with the corpus so the *absolute*
// number of query-like entries stays fixed: what grows with N is the
// unrelated bulk the index exists to prune, exactly the
// dataset-discovery shape (a handful of relevant tables in a sea).
GraphCorpusOptions CorpusConfig(size_t entries) {
  GraphCorpusOptions options;
  options.seed = 29;
  options.query_width = 8;
  options.min_width = 4;
  options.max_width = 16;
  double n = static_cast<double>(entries);
  options.related_fraction = std::min(0.25, 20.0 / n);
  options.mild_fraction = std::min(0.25, 100.0 / n);
  options.narrow_fraction = 0.10;
  return options;
}

CatalogSearchOptions SearchConfig(bool use_prefilter, bool use_index,
                                  size_t num_threads) {
  CatalogSearchOptions options;
  options.k = 10;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.match.alpha = 3.0;
  options.match.algorithm = MatchAlgorithm::kSimulatedAnnealing;
  options.use_prefilter = use_prefilter;
  options.use_index = use_index;
  options.num_threads = num_threads;
  return options;
}

bool SameRanking(const CatalogSearchResult& a, const CatalogSearchResult& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].entry != b.ranked[i].entry) return false;
    if (std::bit_cast<uint64_t>(a.ranked[i].ranking_key) !=
        std::bit_cast<uint64_t>(b.ranked[i].ranking_key)) {
      return false;
    }
    if (a.ranked[i].match.pairs != b.ranked[i].match.pairs) return false;
  }
  return true;
}

struct SizeReport {
  size_t entries = 0;
  double build_ms = 0.0;
  double index_ms = 0.0;
  double sharded_write_ms = 0.0;
  double sharded_open_ms = 0.0;
  double first_query_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double min_ms = 0.0;
  size_t threads = 0;
  CatalogSearchStats tiered_stats;
  size_t flat_bound_evaluations = 0;
  bool identical = true;
  bool brute_checked = false;
};

SizeReport RunSize(size_t entries, size_t reps, bool smoke) {
  SizeReport report;
  report.entries = entries;
  const GraphCorpusOptions corpus = CorpusConfig(entries);
  const DependencyGraph query = CorpusQuery(corpus);
  const size_t fanout_threads =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  report.threads = fanout_threads;

  GraphCatalog catalog;
  report.build_ms = TimeMs([&] {
    for (size_t i = 0; i < entries; ++i) {
      DEPMATCH_CHECK(
          catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
    }
  });
  report.index_ms = TimeMs([&] { catalog.BuildIndex(); });

  const std::string store_dir =
      StrFormat("bench_catalog_scale_store_%d_%zu", getpid(), entries);
  report.sharded_write_ms = TimeMs([&] {
    DEPMATCH_CHECK(WriteShardedCatalog(catalog, store_dir).ok());
  });

  // Open cost: manifest map + header verification only, so this should
  // not move across corpus sizes.
  report.sharded_open_ms = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    report.sharded_open_ms = std::min(report.sharded_open_ms, TimeMs([&] {
      Result<ShardedCatalogStore> opened = ShardedCatalogStore::Open(store_dir);
      DEPMATCH_CHECK(opened.ok());
    }));
  }

  Result<ShardedCatalogStore> opened = ShardedCatalogStore::Open(store_dir);
  DEPMATCH_CHECK(opened.ok());
  const ShardedCatalogStore& store = opened.value();
  DEPMATCH_CHECK(store.size() == entries);

  // First query on the fresh store pays the lazy metadata verification
  // and signature materialization.
  CatalogSearchResult tiered;
  report.first_query_ms = TimeMs([&] {
    Result<CatalogSearchResult> search = SearchShardedCatalog(
        query, store, SearchConfig(true, true, fanout_threads));
    DEPMATCH_CHECK(search.ok());
    tiered = std::move(search).value();
  });
  report.tiered_stats = tiered.stats;

  // Identity gate: flat in-memory is the reference; the index, the
  // store, and the thread count must all be unobservable.
  Result<CatalogSearchResult> reference =
      SearchCatalog(query, catalog, SearchConfig(true, false, 1));
  DEPMATCH_CHECK(reference.ok());
  report.flat_bound_evaluations = reference->stats.bound_evaluations;
  report.identical = SameRanking(*reference, tiered);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Result<CatalogSearchResult> mem_tiered =
        SearchCatalog(query, catalog, SearchConfig(true, true, threads));
    DEPMATCH_CHECK(mem_tiered.ok());
    if (!SameRanking(*reference, *mem_tiered)) report.identical = false;
    Result<CatalogSearchResult> sharded = SearchShardedCatalog(
        query, store, SearchConfig(true, true, threads));
    DEPMATCH_CHECK(sharded.ok());
    if (!SameRanking(*reference, *sharded)) report.identical = false;
  }
  // The all-pairs brute force is only affordable at small sizes (it
  // runs a full match per compatible entry).
  if (entries <= (smoke ? entries : size_t{1000})) {
    Result<CatalogSearchResult> brute =
        SearchCatalog(query, catalog, SearchConfig(false, false, 1));
    DEPMATCH_CHECK(brute.ok());
    if (!SameRanking(*reference, *brute)) report.identical = false;
    report.brute_checked = true;
  }

  // Warm latency distribution over the already-materialized store.
  std::vector<double> latencies;
  latencies.reserve(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    latencies.push_back(TimeMs([&] {
      Result<CatalogSearchResult> search = SearchShardedCatalog(
          query, store, SearchConfig(true, true, fanout_threads));
      DEPMATCH_CHECK(search.ok());
    }));
  }
  report.p50_ms = Percentile(latencies, 50.0);
  report.p99_ms = Percentile(latencies, 99.0);
  report.min_ms = *std::min_element(latencies.begin(), latencies.end());

  benchutil::RemoveStore(store_dir, store.num_segments());
  return report;
}

int Run(bool smoke, const std::string& output_path) {
  size_t reps = smoke ? 3 : 9;
  if (const char* raw = std::getenv("DEPMATCH_BENCH_REPS")) {
    auto parsed = ParseInt64(raw);
    if (parsed.has_value() && *parsed > 0) {
      reps = static_cast<size_t>(*parsed);
    }
  }
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{40, 120}
            : std::vector<size_t>{1000, 10000, 100000};

  std::vector<SizeReport> reports;
  bool identical = true;
  for (size_t entries : sizes) {
    SizeReport report = RunSize(entries, reps, smoke);
    identical = identical && report.identical;
    size_t compatible =
        report.tiered_stats.entries_total -
        report.tiered_stats.entries_incompatible;
    double prune_rate =
        compatible > 0 ? static_cast<double>(report.tiered_stats.entries_pruned) /
                             static_cast<double>(compatible)
                       : 0.0;
    std::printf(
        "N=%-7zu build %8.1f ms  index %7.1f ms  shard write %8.1f ms\n"
        "          sharded open %.3f ms  first query %8.2f ms\n"
        "          search p50 %8.2f ms  p99 %8.2f ms  (threads %zu, "
        "searched %zu, prune rate %.1f%%)\n"
        "          bound evals: tiered %zu entry + %zu cluster vs flat %zu"
        "  identical %s%s\n",
        report.entries, report.build_ms, report.index_ms,
        report.sharded_write_ms, report.sharded_open_ms,
        report.first_query_ms, report.p50_ms, report.p99_ms, report.threads,
        report.tiered_stats.entries_searched, prune_rate * 100.0,
        report.tiered_stats.bound_evaluations,
        report.tiered_stats.cluster_bound_evaluations,
        report.flat_bound_evaluations, report.identical ? "true" : "false",
        report.brute_checked ? " (incl. brute force)" : "");
    reports.push_back(report);
  }
  std::printf("identical top-k across modes/threads/stores: %s\n",
              identical ? "true" : "false");

  if (!output_path.empty()) {
    std::FILE* out = std::fopen(output_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"catalog_scale\",\n");
    std::fprintf(out, "  \"timestamp_utc\": \"%s\",\n",
                 benchutil::IsoTimestampUtc().c_str());
    std::vector<size_t> exercised = {1, 2, 8};
    for (const SizeReport& report : reports) {
      exercised.push_back(report.threads);
    }
    benchutil::WriteMachineJson(out, benchutil::MakeMachineReport(exercised),
                                "  ", /*trailing_comma=*/true);
    std::fprintf(out, "  \"config\": {\n");
    std::fprintf(out, "    \"k\": 10,\n");
    std::fprintf(out, "    \"query_width\": 8,\n");
    std::fprintf(out, "    \"reps\": %zu\n", reps);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(out, "  \"sizes\": [\n");
    for (size_t i = 0; i < reports.size(); ++i) {
      const SizeReport& r = reports[i];
      size_t compatible =
          r.tiered_stats.entries_total - r.tiered_stats.entries_incompatible;
      double prune_rate =
          compatible > 0 ? static_cast<double>(r.tiered_stats.entries_pruned) /
                               static_cast<double>(compatible)
                         : 0.0;
      std::fprintf(out, "    {\n");
      std::fprintf(out, "      \"entries\": %zu,\n", r.entries);
      std::fprintf(out, "      \"build_ms\": %.3f,\n", r.build_ms);
      std::fprintf(out, "      \"index_build_ms\": %.3f,\n", r.index_ms);
      std::fprintf(out, "      \"sharded_write_ms\": %.3f,\n",
                   r.sharded_write_ms);
      std::fprintf(out, "      \"sharded_open_ms\": %.3f,\n",
                   r.sharded_open_ms);
      std::fprintf(out, "      \"first_query_ms\": %.3f,\n", r.first_query_ms);
      std::fprintf(out, "      \"search_threads\": %zu,\n", r.threads);
      std::fprintf(out, "      \"search_p50_ms\": %.3f,\n", r.p50_ms);
      std::fprintf(out, "      \"search_p99_ms\": %.3f,\n", r.p99_ms);
      std::fprintf(out, "      \"search_min_ms\": %.3f,\n", r.min_ms);
      std::fprintf(out, "      \"entries_total\": %zu,\n",
                   r.tiered_stats.entries_total);
      std::fprintf(out, "      \"entries_incompatible\": %zu,\n",
                   r.tiered_stats.entries_incompatible);
      std::fprintf(out, "      \"entries_pruned\": %zu,\n",
                   r.tiered_stats.entries_pruned);
      std::fprintf(out, "      \"entries_searched\": %zu,\n",
                   r.tiered_stats.entries_searched);
      std::fprintf(out, "      \"prune_rate\": %.4f,\n", prune_rate);
      std::fprintf(out, "      \"bound_evaluations\": %zu,\n",
                   r.tiered_stats.bound_evaluations);
      std::fprintf(out, "      \"cluster_bound_evaluations\": %zu,\n",
                   r.tiered_stats.cluster_bound_evaluations);
      std::fprintf(out, "      \"flat_bound_evaluations\": %zu,\n",
                   r.flat_bound_evaluations);
      std::fprintf(out, "      \"brute_force_checked\": %s,\n",
                   r.brute_checked ? "true" : "false");
      std::fprintf(out, "      \"identical\": %s\n",
                   r.identical ? "true" : "false");
      std::fprintf(out, "    }%s\n", (i + 1 < reports.size()) ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", output_path.c_str());
  }
  return identical ? 0 : 2;
}

}  // namespace
}  // namespace depmatch

int main(int argc, char** argv) {
  bool smoke = false;
  bool path_given = false;
  std::string output_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      output_path = arg;
      path_given = true;
    }
  }
  if (!smoke && !path_given) output_path = "BENCH_catalog_scale.json";
  return depmatch::Run(smoke, output_path);
}
