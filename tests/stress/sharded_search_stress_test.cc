// Concurrency contract of the sharded store's lazy materialization:
// EnsureMetadata, per-entry signature construction, per-segment
// mmap + CRC verification, and per-entry graph deserialization are all
// guarded by std::once_flags, so any number of searches may hit one
// store concurrently — including the very first touches. Under the
// `tsan` preset (ctest label `tsan_stress`) these tests drive 8 client
// threads into a freshly opened store, each running its own search on
// several workers, while asserting every thread sees the serial
// in-memory ranking bit-for-bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
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
                       const CatalogSearchResult& other, size_t client) {
  const std::string stats = " (serial " + base.stats.ToString() +
                            "; client " + other.stats.ToString() + ")";
  ASSERT_EQ(other.ranked.size(), base.ranked.size())
      << "ranking size diverged for client " << client << stats;
  for (size_t i = 0; i < base.ranked.size(); ++i) {
    EXPECT_EQ(other.ranked[i].entry, base.ranked[i].entry)
        << "entry diverged for client " << client << stats;
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << "key diverged for client " << client << stats;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << "pairs diverged for client " << client << stats;
  }
}

TEST(ShardedSearchStressTest, EightConcurrentClientsOnAFreshStore) {
  GraphCatalog catalog;
  for (size_t e = 0; e < 24; ++e) {
    ASSERT_TRUE(catalog
                    .Insert("t" + std::to_string(e),
                            RandomGraph(4 + e % 3, 1200 + e))
                    .ok());
  }
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/stress_sharded_store";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 3;  // many segments -> many lazy mmaps
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());

  CatalogSearchOptions options;
  options.k = 4;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;

  // Distinct queries, serial in-memory references computed up front.
  const size_t kClients = 8;
  std::vector<DependencyGraph> queries;
  std::vector<CatalogSearchResult> expected;
  for (size_t q = 0; q < kClients; ++q) {
    queries.push_back(RandomGraph(5, 1100 + q % 3));
    auto base = SearchCatalog(queries.back(), catalog, options);
    ASSERT_TRUE(base.ok()) << base.status();
    expected.push_back(*std::move(base));
  }

  for (int round = 0; round < 3; ++round) {
    // A fresh Open every round: all lazy state (metadata, signatures,
    // segment maps, graphs) is cold and materializes under contention.
    auto store = ShardedCatalogStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status();

    CatalogSearchOptions client_options = options;
    // Each client's search runs its own workers, so cold signatures and
    // graphs also materialize from search workers.
    client_options.num_threads = 4;
    std::vector<CatalogSearchResult> results(kClients);
    std::vector<Status> statuses(kClients);
    // Raw threads on purpose: the clients model independent processes
    // hitting one store, not pool workers.
    // depmatch-lint: allow(raw-thread)
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto result =
            SearchShardedCatalog(queries[c], *store, client_options);
        statuses[c] = result.status();
        if (result.ok()) results[c] = *std::move(result);
      });
    }
    // depmatch-lint: allow(raw-thread)
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(statuses[c].ok()) << statuses[c];
      ExpectSameRanking(expected[c], results[c], c);
      EXPECT_EQ(results[c].stats.entries_searched +
                    results[c].stats.entries_pruned +
                    results[c].stats.entries_incompatible,
                results[c].stats.entries_total);
    }
  }
}

}  // namespace
}  // namespace depmatch
