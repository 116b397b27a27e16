// Concurrency contract of the sharded store's lazy materialization:
// EnsureMetadata, per-entry signature checking and construction,
// per-segment mmap + CRC verification, and per-entry graph
// deserialization are all guarded by std::once_flags, so any number of
// searches may hit one store concurrently — including the very first
// touches. Under the `tsan` preset (ctest label `tsan_stress`) these
// tests drive 8 client threads into a freshly opened store, each running
// its own search on several workers, while asserting every thread sees
// the serial in-memory ranking bit-for-bit — or, when the store's
// signatures are corrupt, the failure a 1-thread search reports.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_io.h"

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

constexpr size_t kClients = 8;

// 24 entries of widths 4-6 with a tiered index.
GraphCatalog StressCatalog() {
  GraphCatalog catalog;
  for (size_t e = 0; e < 24; ++e) {
    EXPECT_TRUE(catalog
                    .Insert("t" + std::to_string(e),
                            RandomGraph(4 + e % 3, 1200 + e))
                    .ok());
  }
  catalog.BuildIndex();
  return catalog;
}

// Three entries to a segment: many segments -> many lazy mmaps.
Status WriteStressStore(const GraphCatalog& catalog, const std::string& dir) {
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 3;
  return WriteShardedCatalog(catalog, dir, write);
}

CatalogSearchOptions StressOptions() {
  CatalogSearchOptions options;
  options.k = 4;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  return options;
}

// One 5-wide query per client, three distinct among them.
std::vector<DependencyGraph> StressQueries() {
  std::vector<DependencyGraph> queries;
  for (size_t q = 0; q < kClients; ++q) {
    queries.push_back(RandomGraph(5, 1100 + q % 3));
  }
  return queries;
}

// Runs search(c) for every client c on its own raw thread, all at once,
// and returns each client's result.
std::vector<Result<CatalogSearchResult>> RunClients(
    const std::function<Result<CatalogSearchResult>(size_t)>& search) {
  std::vector<Result<CatalogSearchResult>> results(
      kClients, Status(StatusCode::kInternal, "client did not run"));
  // Raw threads on purpose: the clients model independent processes
  // hitting one store, not pool workers.
  // depmatch-lint: allow(raw-thread)
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] { results[c] = search(c); });
  }
  // depmatch-lint: allow(raw-thread)
  for (std::thread& t : clients) t.join();
  return results;
}

TEST(ShardedSearchStressTest, EightConcurrentClientsOnAFreshStore) {
  const GraphCatalog catalog = StressCatalog();
  std::string dir = testing::TempDir() + "/stress_sharded_store";
  ASSERT_TRUE(WriteStressStore(catalog, dir).ok());
  const CatalogSearchOptions options = StressOptions();

  // Serial in-memory references computed up front.
  const std::vector<DependencyGraph> queries = StressQueries();
  std::vector<CatalogSearchResult> expected;
  for (const DependencyGraph& query : queries) {
    auto base = SearchCatalog(query, catalog, options);
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
    std::vector<Result<CatalogSearchResult>> results = RunClients(
        [&](size_t c) {
          return SearchShardedCatalog(queries[c], *store, client_options);
        });
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(results[c].ok()) << results[c].status();
      ExpectSameRanking(expected[c], *results[c], c);
      EXPECT_EQ(results[c]->stats.entries_searched +
                    results[c]->stats.entries_pruned +
                    results[c]->stats.entries_incompatible,
                results[c]->stats.entries_total);
    }
  }
}

TEST(ShardedSearchStressTest, CorruptSignaturesFailEveryClientAsOneThread) {
  const GraphCatalog catalog = StressCatalog();
  std::string dir = testing::TempDir() + "/stress_sharded_corrupt_signatures";
  ASSERT_TRUE(WriteStressStore(catalog, dir).ok());
  const std::vector<DependencyGraph> queries = StressQueries();

  // Flip one byte in every signature a 5-wide onto query can read. The
  // signatures are contiguous in entry order, 8·w² bytes each, from the
  // signature heap's descriptor offset (header byte 64).
  const std::string path = dir + "/MANIFEST.dms";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
  size_t cursor = 64;
  uint64_t offset = 0;
  ASSERT_TRUE(graphio::ReadU64(bytes, &cursor, &offset));
  for (size_t e = 0; e < catalog.size(); ++e) {
    const size_t width = catalog.graph(e).size();
    if (width >= queries[0].size()) {
      char& byte = bytes[static_cast<size_t>(offset) + 4 * width * width];
      byte = static_cast<char>(byte ^ 0x5A);
    }
    offset += 8 * width * width;
  }
  ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());

  // Half the clients descend the index and half scan flat. Each expects
  // what a 1-thread search of its query reports on its own fresh store.
  auto client_options = [](size_t c, size_t threads) {
    CatalogSearchOptions options = StressOptions();
    options.use_index = c % 2 == 0;
    options.num_threads = threads;
    return options;
  };
  std::vector<Status> expected;
  for (size_t c = 0; c < kClients; ++c) {
    auto store = ShardedCatalogStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status();
    auto serial =
        SearchShardedCatalog(queries[c], *store, client_options(c, 1));
    ASSERT_FALSE(serial.ok()) << "client " << c;
    EXPECT_NE(serial.status().message().find("signature checksum mismatch"),
              std::string::npos)
        << serial.status();
    expected.push_back(serial.status());
  }

  for (int round = 0; round < 3; ++round) {
    // A fresh Open every round: every signature check runs under
    // contention, from the clients' own workers. A failed signature
    // must wake every worker of its search, or the client hangs.
    auto store = ShardedCatalogStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status();
    std::vector<Result<CatalogSearchResult>> results = RunClients(
        [&](size_t c) {
          return SearchShardedCatalog(queries[c], *store, client_options(c, 4));
        });
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_FALSE(results[c].ok()) << "client " << c;
      EXPECT_EQ(results[c].status().ToString(), expected[c].ToString())
          << "client " << c << " round " << round;
    }
  }
}

}  // namespace
}  // namespace depmatch
