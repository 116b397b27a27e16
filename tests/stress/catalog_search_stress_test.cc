// Determinism contract of the parallel catalog search under load: the
// workers sharing one best-first frontier, their overlapping GraphMatch
// calls, the shared top-k threshold, and the prefilter's prune decisions
// must return the exact serial ranking at 8 threads, run after run.
// Under the `tsan` preset (ctest label `tsan_stress`) these same tests
// put the race detector on the frontier lock, the SharedTopK
// mutex/atomic pair and the shared result list while the contract is
// asserted.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/common/thread_annotations.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/dependency_graph.h"

namespace depmatch {
namespace {

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("c" + std::to_string(i));
    m[i][i] = 0.5 + rng.NextDouble() * 5.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]) * 0.6;
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

void ExpectSameRanking(const CatalogSearchResult& base,
                       const CatalogSearchResult& other, size_t threads) {
  const std::string stats = " (serial " + base.stats.ToString() +
                            "; parallel " + other.stats.ToString() + ")";
  ASSERT_EQ(other.ranked.size(), base.ranked.size())
      << "ranking size diverged at num_threads=" << threads << stats;
  for (size_t i = 0; i < base.ranked.size(); ++i) {
    EXPECT_EQ(other.ranked[i].entry, base.ranked[i].entry)
        << "entry order diverged at num_threads=" << threads << stats;
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << "key diverged at num_threads=" << threads << stats;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << "pairs diverged at num_threads=" << threads << stats;
  }
}

// A GraphCatalog view whose graph() records the peak number of calls in
// flight at once. Each call waits, for at most two seconds, until some
// call has had company, so a search that loads its entries one at a time
// shows a peak of 1 and one whose workers overlap shows at least 2.
class OverlapRecordingView final : public CatalogEntryView {
 public:
  explicit OverlapRecordingView(const GraphCatalog& catalog)
      : catalog_(catalog) {}
  size_t count() const override { return catalog_.size(); }
  size_t width(size_t entry) const override {
    return catalog_.graph(entry).size();
  }
  std::string_view name(size_t entry) const override {
    return catalog_.name(entry);
  }
  Result<const GraphSignature*> signature(size_t entry) const override {
    return &catalog_.signature(entry);
  }
  Result<const DependencyGraph*> graph(size_t entry) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++in_flight_;
    peak_ = std::max(peak_, in_flight_);
    overlapped_.notify_all();
    overlapped_.wait_for(lock, std::chrono::seconds(2),
                         [this] { return peak_ >= 2; });
    --in_flight_;
    return &catalog_.graph(entry);
  }
  size_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  const GraphCatalog& catalog_;
  mutable std::mutex mu_;
  mutable std::condition_variable overlapped_;
  mutable size_t in_flight_ DEPMATCH_GUARDED_BY(mu_) = 0;
  mutable size_t peak_ DEPMATCH_GUARDED_BY(mu_) = 0;
};

TEST(CatalogSearchStressTest, WorkersOverlapMatchesFromTheFirstPop) {
  // Six candidates and k = 3: no entry can be pruned before three keys
  // exist, and the search must not make those first three matches wait
  // for each other — on the flat pass or the tiered descent.
  GraphCatalog catalog;
  for (size_t e = 0; e < 6; ++e) {
    ASSERT_TRUE(
        catalog.Insert("v" + std::to_string(e), RandomGraph(5, 500 + e))
            .ok());
  }
  catalog.BuildIndex();
  DependencyGraph query = RandomGraph(5, 499);
  CatalogSearchOptions options;
  options.k = 3;
  options.match.cardinality = Cardinality::kOneToOne;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.num_threads = 1;
  auto serial = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(serial.ok()) << serial.status();

  options.num_threads = 4;
  const CatalogTieredIndex* const kPaths[] = {nullptr, catalog.index()};
  for (const CatalogTieredIndex* index : kPaths) {
    OverlapRecordingView view(catalog);
    auto parallel = SearchCatalogView(query, view, index, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_GE(view.peak(), 2u)
        << (index == nullptr ? "flat" : "tiered") << " "
        << parallel->stats.ToString();
    ExpectSameRanking(*serial, *parallel, 4);
  }
}

TEST(CatalogSearchStressTest, EightThreadSearchIsSerialIdentical) {
  GraphCatalog catalog;
  for (size_t e = 0; e < 24; ++e) {
    ASSERT_TRUE(catalog
                    .Insert("t" + std::to_string(e),
                            RandomGraph(4 + e % 3, 900 + e))
                    .ok());
  }
  DependencyGraph query = RandomGraph(5, 890);

  CatalogSearchOptions options;
  options.k = 4;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  for (bool prefilter : {false, true}) {
    options.use_prefilter = prefilter;
    options.num_threads = 1;
    auto base = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(base.ok()) << base.status();
    options.num_threads = 8;
    for (int rep = 0; rep < 3; ++rep) {
      auto parallel = SearchCatalog(query, catalog, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRanking(*base, *parallel, 8);
      // Outcome accounting holds whatever the prune/search interleaving.
      EXPECT_EQ(parallel->stats.entries_searched +
                    parallel->stats.entries_pruned +
                    parallel->stats.entries_incompatible,
                parallel->stats.entries_total);
    }
  }
}

TEST(CatalogSearchStressTest, ConcurrentDistinctQueriesShareTheCatalog) {
  // Catalog reads are const-shared across queries; back-to-back parallel
  // searches with different queries must not disturb each other's
  // results (and must be race-free under TSan).
  GraphCatalog catalog;
  for (size_t e = 0; e < 12; ++e) {
    ASSERT_TRUE(catalog
                    .Insert("u" + std::to_string(e),
                            RandomGraph(5, 700 + e))
                    .ok());
  }
  CatalogSearchOptions options;
  options.k = 3;
  options.match.cardinality = Cardinality::kOneToOne;
  options.match.metric = MetricKind::kEntropyNormal;
  options.num_threads = 8;

  std::vector<CatalogSearchResult> first;
  for (uint64_t q = 0; q < 3; ++q) {
    auto result = SearchCatalog(RandomGraph(5, 600 + q), catalog, options);
    ASSERT_TRUE(result.ok()) << result.status();
    first.push_back(*std::move(result));
  }
  for (uint64_t q = 0; q < 3; ++q) {
    auto again = SearchCatalog(RandomGraph(5, 600 + q), catalog, options);
    ASSERT_TRUE(again.ok()) << again.status();
    ExpectSameRanking(first[q], *again, 8);
  }
}

}  // namespace
}  // namespace depmatch
