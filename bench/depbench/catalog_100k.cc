// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// catalog_100k: library calls from one caller against a 100,000-entry
// sharded store, the only catalog far larger than what a query touches.
// Set-up builds the banded corpus, its tiered index, and the store.
// Phase A opens the store and runs its first search (page cache warm,
// lazy metadata cold); phase B runs warm searches cycling over 100
// query-family graphs: k=10, onto, MI-Normal(3.0), annealing, 4 threads.
// No table, graph-build, or service code runs.

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "checks.h"
#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/graph_corpus.h"
#include "inputs.h"
#include "workloads.h"

namespace depbench {
namespace {

using depmatch::CatalogSearchOptions;
using depmatch::CatalogSearchResult;
using depmatch::DependencyGraph;
using depmatch::GraphCatalog;
using depmatch::ShardedCatalogStore;
using depmatch::StrFormat;

constexpr size_t kSearchThreads = 4;
// Searches before phase B's clock starts, so the lazily materialized
// signatures and segments of the query neighbourhood are resident (every
// family query searches the same neighbourhood).
constexpr size_t kWarmupSearches = 5;

struct Shape {
  size_t entries = 100'000;
  size_t queries = 100;
  size_t cold_queries = 10;
  size_t gate_queries = 10;
};

CatalogSearchOptions ScaleSearch(size_t threads, bool use_index) {
  CatalogSearchOptions options;
  options.k = 10;
  options.match.cardinality = depmatch::Cardinality::kOnto;
  options.match.metric = depmatch::MetricKind::kMutualInfoNormal;
  options.match.alpha = 3.0;
  options.match.algorithm = depmatch::MatchAlgorithm::kSimulatedAnnealing;
  options.use_index = use_index;
  options.num_threads = threads;
  return options;
}

struct Search {
  size_t query = 0;
  double ms = 0.0;
  Clock::time_point done;
  CatalogSearchResult result;
};

class Catalog100k {
 public:
  Catalog100k(const RunConfig& config, Tracer& tracer, RunReport& report)
      : config_(config), tracer_(tracer), report_(report) {}

  void Run();

 private:
  void Setup();
  // Phase A: Open + first search on a fresh store, `count` times.
  std::vector<Search> Cold(size_t count, bool traced);
  // Phase B: warm searches on `store` for `seconds`.
  std::vector<Search> Warm(const ShardedCatalogStore& store, double seconds,
                           bool traced);
  Search RunSearch(const ShardedCatalogStore& store, size_t query, bool traced);
  // Replays each ranked hit's GraphMatch, checked against the search's.
  void Replay(const ShardedCatalogStore& store, const Search& search,
              uint64_t op_id, uint64_t parent);
  void Gate(const std::vector<Search>& cold, const std::vector<Search>& warm);

  const RunConfig& config_;
  Tracer& tracer_;
  RunReport& report_;
  Shape shape_;
  std::string store_dir_;
  std::optional<GraphCatalog> catalog_;
  std::vector<DependencyGraph> queries_;
  std::vector<size_t> order_;
  size_t next_op_ = 0;
  LayerCounters counters_;
};

void Catalog100k::Setup() {
  const depmatch::GraphCorpusOptions corpus =
      CorpusConfig(shape_.entries);
  auto setup = [&] {
    GraphCatalog catalog;
    {
      Span span(tracer_, "core.catalog_insert", Layer::kCore, 0);
      for (size_t i = 0; i < shape_.entries; ++i) {
        DEPMATCH_CHECK(catalog
                           .Insert(depmatch::CorpusEntryName(i),
                                   depmatch::CorpusEntry(corpus, i))
                           .ok());
      }
    }
    {
      Span span(tracer_, "core.index_build", Layer::kCore, 0);
      catalog.BuildIndex();
    }
    {
      Span span(tracer_, "core.store_write", Layer::kCore, 0);
      DEPMATCH_CHECK(depmatch::WriteShardedCatalog(catalog, store_dir_).ok());
    }
    catalog_ = std::move(catalog);
  };
  AddSetupTime(report_, setup, [&] { catalog_.reset(); });

  for (size_t i = 0; i < shape_.queries; ++i) {
    queries_.push_back(QueryFamilyGraph(corpus, i));
  }
  order_.resize(shape_.queries);
  std::iota(order_.begin(), order_.end(), size_t{0});
  depmatch::Rng(config_.seed ^ 0xCA7A1u).Shuffle(order_);
}

void Catalog100k::Run() {
  if (config_.smoke) shape_ = {400, 8, 2, 4};
  store_dir_ = config_.workdir + "/store";
  Setup();

  depmatch::Result<ShardedCatalogStore> opened =
      ShardedCatalogStore::Open(store_dir_);
  DEPMATCH_CHECK(opened.ok());
  const ShardedCatalogStore& store = *opened;
  for (size_t i = 0; i < kWarmupSearches; ++i) {
    RunSearch(store, order_[i % order_.size()], false);
  }

  if (config_.trace) {
    std::vector<Search> plain = Warm(store, config_.seconds * kUntracedShare, false);
    std::vector<Search> cold = Cold(shape_.cold_queries, true);
    std::vector<Search> traced =
        Warm(store, config_.seconds * (1.0 - kUntracedShare), true);
    std::vector<double> plain_ms, traced_ms;
    for (const Search& s : plain) plain_ms.push_back(s.ms);
    for (const Search& s : traced) traced_ms.push_back(s.ms);
    counters_.untraced_p50_ms = Median(plain_ms);
    counters_.traced_p50_ms = Median(traced_ms);
    report_.CountOps(plain.size() + cold.size() + traced.size(), 0);
    AddLayerMetrics(tracer_, counters_, report_);
    return;
  }

  // Both phases share the measured seconds; phase B gets what phase A
  // leaves, and at least half.
  const Clock::time_point cold_start = Clock::now();
  std::vector<Search> cold = Cold(shape_.cold_queries, false);
  const double warm_s =
      std::max(config_.seconds - MsSince(cold_start) / 1000.0, config_.seconds / 2);
  Clock::time_point start = Clock::now();
  std::vector<Search> warm = Warm(store, warm_s, false);
  report_.CountOps(cold.size() + warm.size(), 0);
  Gate(cold, warm);

  std::vector<double> warm_ms, cold_ms;
  std::vector<Clock::time_point> done;
  for (const Search& s : warm) {
    warm_ms.push_back(s.ms);
    done.push_back(s.done);
  }
  for (const Search& s : cold) cold_ms.push_back(s.ms);

  // Precision: the top hit of each distinct query should be a
  // perturbation of the corpus query, matched by the identity.
  std::vector<bool> seen(shape_.queries, false);
  size_t correct = 0, total = 0;
  for (const Search& s : warm) {
    if (seen[s.query]) continue;
    seen[s.query] = true;
    total += queries_[s.query].size();
    if (s.result.ranked.empty()) continue;
    const depmatch::CatalogMatch& top = s.result.ranked.front();
    depmatch::Result<const DependencyGraph*> graph = store.graph(top.entry);
    if (graph.ok() && IsQueryPerturbation(**graph, queries_[s.query].size())) {
      correct += IdentityPairs(top.match.pairs);
    }
  }

  report_.Add("peak_rss_mb", PeakRssMb(), "MB");
  report_.AddPercentile("op_p50_ms", warm_ms, 50.0);
  report_.AddPercentile("op_tail_ms", warm_ms, config_.tail_pct());
  report_.AddPercentile("op2_p50_ms", cold_ms, 50.0);
  report_.Add("ops_per_s", MedianRatePerS(done, start), "1/s", warm.size());
  report_.Add("match_precision",
              total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                        : 0.0,
              "ratio", total);
}

std::vector<Search> Catalog100k::Cold(size_t count, bool traced) {
  Tracer& tracer = traced ? tracer_ : DisabledTracer();
  std::vector<Search> searches;
  CpuRotation cpus;
  for (size_t i = 0; i < count; ++i) {
    cpus.Next();
    const uint64_t op_id = ++next_op_;
    Search search;
    search.query = order_[i % order_.size()];
    Span root(tracer, "catalog.cold_query", Layer::kOp, op_id);
    depmatch::Result<ShardedCatalogStore> store = [&] {
      Span span(tracer, "core.store_open", Layer::kCore, op_id, root.id());
      return ShardedCatalogStore::Open(store_dir_);
    }();
    DEPMATCH_CHECK(store.ok());
    if (traced) {
      // The search would run EnsureMetadata itself; calling it first
      // splits the lazy metadata parse from the search proper.
      Span span(tracer, "core.metadata", Layer::kCore, op_id, root.id());
      DEPMATCH_CHECK(store->EnsureMetadata().ok());
    }
    depmatch::Result<CatalogSearchResult> result = [&] {
      Span span(tracer, "core.first_search", Layer::kCore, op_id, root.id());
      return depmatch::SearchShardedCatalog(queries_[search.query], *store,
                                            ScaleSearch(kSearchThreads, true));
    }();
    search.ms = root.End();
    if (!result.ok()) {
      report_.Fail("cold search failed: " + result.status().ToString());
      continue;
    }
    search.result = *std::move(result);
    searches.push_back(std::move(search));
  }
  return searches;
}

std::vector<Search> Catalog100k::Warm(const ShardedCatalogStore& store,
                                      double seconds, bool traced) {
  std::vector<Search> searches;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const size_t min_ops = config_.smoke ? shape_.queries : 1;
  CpuRotation cpus;
  while (searches.size() < min_ops || Clock::now() < deadline) {
    cpus.Next();
    searches.push_back(
        RunSearch(store, order_[searches.size() % order_.size()], traced));
  }
  return searches;
}

Search Catalog100k::RunSearch(const ShardedCatalogStore& store, size_t query,
                              bool traced) {
  Tracer& tracer = traced ? tracer_ : DisabledTracer();
  const uint64_t op_id = ++next_op_;
  Search search;
  search.query = query;
  Span root(tracer, "core.search", Layer::kCore, op_id);
  depmatch::Result<CatalogSearchResult> result = depmatch::SearchShardedCatalog(
      queries_[query], store, ScaleSearch(kSearchThreads, true));
  search.ms = root.End();
  search.done = Clock::now();
  if (!result.ok()) {
    report_.Fail("warm search failed: " + result.status().ToString());
    return search;
  }
  search.result = *std::move(result);
  if (traced) Replay(store, search, op_id, root.id());
  return search;
}

void Catalog100k::Replay(const ShardedCatalogStore& store, const Search& search,
                         uint64_t op_id, uint64_t parent) {
  const CatalogSearchOptions options = ScaleSearch(kSearchThreads, true);
  std::vector<double> per_entry;
  for (const depmatch::CatalogMatch& hit : search.result.ranked) {
    depmatch::Result<const DependencyGraph*> graph = store.graph(hit.entry);
    Span span(tracer_, "match.graphmatch", Layer::kMatch, op_id, parent);
    depmatch::Result<depmatch::MatchResult> m =
        depmatch::MatchGraphs(queries_[search.query], **graph, options.match);
    per_entry.push_back(span.End());
    if (!m.ok() || !SameMatch(*m, hit.match)) {
      report_.Fail(StrFormat("replayed GraphMatch of %s differs from the search's",
                             hit.name.c_str()));
      return;
    }
    counters_.nodes_explored += static_cast<double>(m->nodes_explored);
    counters_.budget_exhausted += m->budget_exhausted ? 1.0 : 0.0;
  }
  counters_.graphmatch_calls += static_cast<double>(per_entry.size());
  const double replayed = counters_.AddSearch(search.result.stats, search.ms, per_entry);
  counters_.coverage.push_back(replayed / search.ms);
}

void Catalog100k::Gate(const std::vector<Search>& cold,
                       const std::vector<Search>& warm) {
  // Every search of one query must return the same ranking, cold or warm.
  std::vector<const Search*> first(shape_.queries, nullptr);
  for (const std::vector<Search>* phase : {&warm, &cold}) {
    for (const Search& s : *phase) {
      if (first[s.query] == nullptr) {
        first[s.query] = &s;
      } else if (!SameRanking(s.result, first[s.query]->result)) {
        report_.Fail(StrFormat("query %zu: rankings differ between searches",
                               s.query));
      }
    }
  }
  // Sampled queries must equal a flat in-memory scan without the index.
  std::vector<size_t> searched;
  for (size_t q = 0; q < shape_.queries; ++q) {
    if (first[q] != nullptr) searched.push_back(q);
  }
  depmatch::Rng rng(config_.seed ^ 0x6A7Eu);
  rng.Shuffle(searched);
  searched.resize(std::min(searched.size(), shape_.gate_queries));
  std::vector<char> same(searched.size(), 0);
  depmatch::ThreadPool::ParallelFor(kSearchThreads, searched.size(), [&](size_t i) {
    depmatch::Result<CatalogSearchResult> flat = depmatch::SearchCatalog(
        queries_[searched[i]], *catalog_, ScaleSearch(1, /*use_index=*/false));
    same[i] = flat.ok() && SameRanking(*flat, first[searched[i]]->result);
  });
  for (size_t i = 0; i < searched.size(); ++i) {
    if (!same[i]) {
      report_.Fail(StrFormat("query %zu: sharded top-k differs from the flat scan",
                             searched[i]));
    }
  }
}

}  // namespace

void RunCatalog100k(const RunConfig& config, Tracer& tracer, RunReport& report) {
  Catalog100k(config, tracer, report).Run();
}

}  // namespace depbench
