// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// bench_catalog: catalog-scale top-k schema search over a synthetic
// corpus of dependency graphs. One query table is searched against an
// N-entry catalog three ways over the exact same entries:
//
//   * brute_seq           — no prefilter, serial: a full GraphMatch per
//                           compatible entry (the all-pairs baseline)
//   * prefilter_seq       — signature prefilter on, serial
//   * prefilter_parallel  — signature prefilter on, catalog fan-out
//                           across the thread pool
//
// Before timing, the three modes' rankings are asserted identical entry
// for entry and bit-for-bit in every ranking key — the prefilter and the
// parallel fan-out are required to be unobservable in the results. The
// run also reports the prefilter's prune rate and the cold
// (Table2DepGraph per table) versus warm (ReadShardedCatalog of the
// sharded store WriteShardedCatalog wrote) catalog construction time.
//
// The corpus mirrors the catalog-search use case: a few entries drawn
// from the query's own generating distribution (different seeds, same
// joint — the paper's two-halves relationship), a mild-overlap band, a
// large unrelated majority with very different alphabet scales, and a
// band of narrower tables that are width-incompatible with an onto
// match.
//
//   DEPMATCH_BENCH_REPS  repetitions per mode (default 3)
//   --smoke              tiny corpus, 1 rep, no JSON unless a path given

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "depmatch/common/logging.h"
#include "depmatch/common/string_util.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/bayes_net.h"
#include "depmatch/graph/graph_builder.h"

namespace depmatch {
namespace {

// A chain Bayes net: attribute i depends on i-1, so the MI matrix has a
// strong band structure the matchers can lock onto.
datagen::BayesNetSpec ChainSpec(size_t width, size_t alphabet_base,
                                double noise) {
  datagen::BayesNetSpec spec;
  for (size_t i = 0; i < width; ++i) {
    datagen::AttributeGenSpec attr;
    attr.name = "c" + std::to_string(i);
    attr.alphabet_size = alphabet_base + (i * 13) % (alphabet_base * 2);
    if (i > 0) {
      attr.parents = {i - 1};
      attr.noise = noise;
    }
    spec.attributes.push_back(attr);
  }
  return spec;
}

// Independent attributes with `alphabet` symbols each: (near-)zero MI
// everywhere, entropies clustered around log2(alphabet).
datagen::BayesNetSpec IndependentSpec(size_t width, size_t alphabet) {
  datagen::BayesNetSpec spec;
  for (size_t i = 0; i < width; ++i) {
    datagen::AttributeGenSpec attr;
    attr.name = "u" + std::to_string(i);
    attr.alphabet_size = alphabet;
    spec.attributes.push_back(attr);
  }
  return spec;
}

DependencyGraph BuildGraph(const datagen::BayesNetSpec& spec, size_t rows,
                           uint64_t seed) {
  Result<Table> table = datagen::GenerateBayesNet(spec, rows, seed);
  DEPMATCH_CHECK(table.ok());
  Result<DependencyGraph> graph = BuildDependencyGraph(table.value());
  DEPMATCH_CHECK(graph.ok());
  return std::move(graph).value();
}

struct Corpus {
  DependencyGraph query;
  GraphCatalog catalog;
  double cold_build_ms = 0.0;  // tables -> graphs -> inserts
};

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Corpus bands: the absolute counts scale down in smoke mode but keep
// every band represented.
Corpus MakeCorpus(bool smoke, uint64_t seed) {
  const size_t rows = smoke ? 400 : 2000;
  const size_t query_width = 6;
  const size_t related = smoke ? 2 : 4;
  const size_t mild = smoke ? 2 : 4;
  const size_t unrelated = smoke ? 4 : 28;
  const size_t incompatible = smoke ? 2 : 4;

  datagen::BayesNetSpec family = ChainSpec(query_width, 16, 0.15);

  Corpus corpus;
  corpus.query = BuildGraph(family, rows, seed);
  corpus.cold_build_ms = TimeMs([&] {
    size_t entry = 0;
    // Same joint distribution as the query, fresh samples: these should
    // surface as the top of the ranking.
    for (size_t i = 0; i < related; ++i) {
      datagen::BayesNetSpec wide = ChainSpec(query_width + i % 2, 16, 0.15);
      DEPMATCH_CHECK(corpus.catalog
                         .Insert("related" + std::to_string(entry++),
                                 BuildGraph(wide, rows, seed + 100 + i))
                         .ok());
    }
    // Chains again, but other alphabet scales and noisier links: some
    // structural resemblance without being the same schema.
    for (size_t i = 0; i < mild; ++i) {
      datagen::BayesNetSpec other =
          ChainSpec(query_width + i % 2, 48, 0.45);
      DEPMATCH_CHECK(corpus.catalog
                         .Insert("mild" + std::to_string(entry++),
                                 BuildGraph(other, rows, seed + 200 + i))
                         .ok());
    }
    // The unrelated majority: independent columns over tiny or huge
    // alphabets, so both entropies and MI profiles sit far from the
    // query's and the admissible bound collapses.
    for (size_t i = 0; i < unrelated; ++i) {
      size_t alphabet = (i % 2 == 0) ? 2 : 300;
      datagen::BayesNetSpec noise =
          IndependentSpec(query_width + i % 3, alphabet);
      DEPMATCH_CHECK(corpus.catalog
                         .Insert("unrelated" + std::to_string(entry++),
                                 BuildGraph(noise, rows, seed + 300 + i))
                         .ok());
    }
    // Narrower than the query: onto-incompatible, skipped upfront.
    for (size_t i = 0; i < incompatible; ++i) {
      datagen::BayesNetSpec narrow = ChainSpec(query_width - 2, 16, 0.15);
      DEPMATCH_CHECK(corpus.catalog
                         .Insert("narrow" + std::to_string(entry++),
                                 BuildGraph(narrow, rows, seed + 400 + i))
                         .ok());
    }
  });
  return corpus;
}

CatalogSearchOptions SearchConfig(bool use_prefilter, size_t num_threads) {
  CatalogSearchOptions options;
  options.k = 3;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.match.alpha = 3.0;
  // Annealing: deterministic per seed and with a per-entry cost that does
  // not depend on how hopeless the entry is, so the brute-force baseline
  // measures exactly (number of entries) x (cost per match).
  options.match.algorithm = MatchAlgorithm::kSimulatedAnnealing;
  options.use_prefilter = use_prefilter;
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

struct ModeSample {
  std::string mode;
  size_t threads = 1;
  size_t reps = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  CatalogSearchStats stats;
};

ModeSample Measure(const Corpus& corpus, const CatalogSearchOptions& options,
                   const std::string& mode, size_t reps) {
  ModeSample sample;
  sample.mode = mode;
  sample.threads = options.num_threads;
  sample.reps = reps;
  sample.min_ms = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    CatalogSearchResult result;
    double ms = TimeMs([&] {
      Result<CatalogSearchResult> search =
          SearchCatalog(corpus.query, corpus.catalog, options);
      DEPMATCH_CHECK(search.ok());
      result = *std::move(search);
    });
    sample.min_ms = std::min(sample.min_ms, ms);
    sample.mean_ms += ms;
    sample.stats = result.stats;
  }
  sample.mean_ms /= static_cast<double>(reps);
  return sample;
}

int Run(bool smoke, const std::string& output_path) {
  size_t reps = smoke ? 1 : 3;
  if (const char* raw = std::getenv("DEPMATCH_BENCH_REPS")) {
    auto parsed = ParseInt64(raw);
    if (parsed.has_value() && *parsed > 0) {
      reps = static_cast<size_t>(*parsed);
    }
  }

  const uint64_t seed = 7;
  Corpus corpus = MakeCorpus(smoke, seed);
  std::printf("corpus: %zu entries (query width %zu), built cold in %.2f ms\n",
              corpus.catalog.size(), corpus.query.size(),
              corpus.cold_build_ms);

  // Persistence: write the store once, then time reading the whole
  // catalog back from it.
  const std::string store_dir =
      (output_path.empty() ? std::string("bench_catalog_store")
                           : output_path) +
      ".store";
  DEPMATCH_CHECK(WriteShardedCatalog(corpus.catalog, store_dir).ok());
  size_t store_bytes = 0;
  for (const std::filesystem::directory_entry& file :
       std::filesystem::directory_iterator(store_dir)) {
    store_bytes += static_cast<size_t>(file.file_size());
  }
  double warm_load_ms = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    warm_load_ms = std::min(warm_load_ms, TimeMs([&] {
      Result<GraphCatalog> loaded = ReadShardedCatalog(store_dir);
      DEPMATCH_CHECK(loaded.ok());
      DEPMATCH_CHECK(loaded->size() == corpus.catalog.size());
    }));
  }
  Result<ShardedCatalogStore> store = ShardedCatalogStore::Open(store_dir);
  DEPMATCH_CHECK(store.ok());
  benchutil::RemoveStore(store_dir, store->num_segments());

  // Correctness gate: all three modes must return the identical top-k.
  size_t fanout_threads =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  Result<CatalogSearchResult> brute =
      SearchCatalog(corpus.query, corpus.catalog, SearchConfig(false, 1));
  DEPMATCH_CHECK(brute.ok());
  bool identical = true;
  for (const CatalogSearchOptions& options :
       {SearchConfig(true, 1), SearchConfig(true, fanout_threads)}) {
    Result<CatalogSearchResult> other =
        SearchCatalog(corpus.query, corpus.catalog, options);
    DEPMATCH_CHECK(other.ok());
    if (!SameRanking(brute.value(), other.value())) identical = false;
  }

  struct ModeConfig {
    const char* name;
    bool prefilter;
    size_t threads;
  };
  const ModeConfig modes[] = {
      {"brute_seq", false, 1},
      {"prefilter_seq", true, 1},
      {"prefilter_parallel", true, fanout_threads},
  };
  std::vector<ModeSample> samples;
  for (const ModeConfig& mode : modes) {
    ModeSample sample =
        Measure(corpus, SearchConfig(mode.prefilter, mode.threads), mode.name,
                reps);
    std::printf(
        "%-19s threads=%zu  min %9.2f ms  mean %9.2f ms  "
        "(searched %zu, pruned %zu, incompatible %zu of %zu)\n",
        sample.mode.c_str(), sample.threads, sample.min_ms, sample.mean_ms,
        sample.stats.entries_searched, sample.stats.entries_pruned,
        sample.stats.entries_incompatible, sample.stats.entries_total);
    samples.push_back(std::move(sample));
  }

  const ModeSample& baseline = samples[0];
  const ModeSample& headline = samples[2];
  double speedup =
      headline.min_ms > 0.0 ? baseline.min_ms / headline.min_ms : 0.0;
  const CatalogSearchStats& prune_stats = samples[1].stats;
  size_t compatible =
      prune_stats.entries_total - prune_stats.entries_incompatible;
  double prune_rate =
      compatible > 0 ? static_cast<double>(prune_stats.entries_pruned) /
                           static_cast<double>(compatible)
                     : 0.0;

  std::printf("\nheadline: brute %.2f ms -> prefiltered parallel %.2f ms = "
              "%.2fx speedup (prune rate %.0f%%, warm load %.2f ms vs cold "
              "build %.2f ms)\n",
              baseline.min_ms, headline.min_ms, speedup, prune_rate * 100.0,
              warm_load_ms, corpus.cold_build_ms);
  std::printf("identical top-k across modes: %s\n",
              identical ? "true" : "false");

  if (!output_path.empty()) {
    std::FILE* out = std::fopen(output_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"catalog\",\n");
    std::fprintf(out, "  \"timestamp_utc\": \"%s\",\n",
                 benchutil::IsoTimestampUtc().c_str());
    benchutil::WriteMachineJson(
        out, benchutil::MakeMachineReport({1, fanout_threads}), "  ",
        /*trailing_comma=*/true);
    std::fprintf(out, "  \"corpus\": {\n");
    std::fprintf(out, "    \"entries\": %zu,\n", corpus.catalog.size());
    std::fprintf(out, "    \"query_width\": %zu,\n", corpus.query.size());
    std::fprintf(out, "    \"k\": 3\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"store\": {\n");
    std::fprintf(out, "    \"file_bytes\": %zu,\n", store_bytes);
    std::fprintf(out, "    \"cold_build_ms\": %.3f,\n", corpus.cold_build_ms);
    std::fprintf(out, "    \"warm_load_ms\": %.3f\n", warm_load_ms);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"prefilter\": {\n");
    std::fprintf(out, "    \"entries_total\": %zu,\n",
                 prune_stats.entries_total);
    std::fprintf(out, "    \"entries_incompatible\": %zu,\n",
                 prune_stats.entries_incompatible);
    std::fprintf(out, "    \"entries_pruned\": %zu,\n",
                 prune_stats.entries_pruned);
    std::fprintf(out, "    \"entries_searched\": %zu,\n",
                 prune_stats.entries_searched);
    std::fprintf(out, "    \"prune_rate\": %.3f\n", prune_rate);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"headline\": {\n");
    std::fprintf(out, "    \"brute_seq_min_ms\": %.3f,\n", baseline.min_ms);
    std::fprintf(out, "    \"prefilter_parallel_min_ms\": %.3f,\n",
                 headline.min_ms);
    std::fprintf(out, "    \"threads\": %zu,\n", headline.threads);
    std::fprintf(out, "    \"speedup\": %.3f,\n", speedup);
    std::fprintf(out, "    \"identical\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"results\": [\n");
    for (size_t i = 0; i < samples.size(); ++i) {
      const ModeSample& s = samples[i];
      std::fprintf(out,
                   "    {\"mode\": \"%s\", \"threads\": %zu, \"reps\": %zu, "
                   "\"min_ms\": %.3f, \"mean_ms\": %.3f, "
                   "\"entries_searched\": %zu, \"entries_pruned\": %zu}%s\n",
                   s.mode.c_str(), s.threads, s.reps, s.min_ms, s.mean_ms,
                   s.stats.entries_searched, s.stats.entries_pruned,
                   (i + 1 < samples.size()) ? "," : "");
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
  if (!smoke && !path_given) output_path = "BENCH_catalog.json";
  return depmatch::Run(smoke, output_path);
}
