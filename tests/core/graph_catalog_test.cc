#include "depmatch/core/graph_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/graph_signature.h"
#include "depmatch/match/metric.h"

namespace depmatch {
namespace {

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("a" + std::to_string(i));
    m[i][i] = 0.5 + rng.NextDouble() * 6.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]) * 0.7;
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

// Mixed-width catalog: some entries narrower than a width-5 query (onto-
// incompatible), some equal (the only one-to-one candidates), some wider.
GraphCatalog MixedCatalog(uint64_t seed, size_t entries) {
  GraphCatalog catalog;
  for (size_t e = 0; e < entries; ++e) {
    size_t width = 4 + e % 3;  // 4, 5, 6
    Status inserted = catalog.Insert("entry" + std::to_string(e),
                                     RandomGraph(width, seed * 100 + e));
    EXPECT_TRUE(inserted.ok());
  }
  return catalog;
}

void ExpectSameRanking(const CatalogSearchResult& base,
                       const CatalogSearchResult& other, const char* what) {
  const std::string context = std::string(what) + " (base " +
                              base.stats.ToString() + "; other " +
                              other.stats.ToString() + ")";
  ASSERT_EQ(other.ranked.size(), base.ranked.size()) << context;
  for (size_t i = 0; i < base.ranked.size(); ++i) {
    EXPECT_EQ(other.ranked[i].entry, base.ranked[i].entry)
        << context << " #" << i;
    EXPECT_EQ(other.ranked[i].name, base.ranked[i].name)
        << context << " #" << i;
    // Bit-identical, not approximately equal: each key comes from one
    // GraphMatch with fixed accumulation order, independent of pruning.
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << context << " #" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].normalized_score),
              std::bit_cast<uint64_t>(base.ranked[i].normalized_score))
        << context << " #" << i;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << context << " #" << i;
  }
}

TEST(GraphCatalogTest, InsertFindAndDuplicates) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.empty());
  ASSERT_TRUE(catalog.Insert("orders", RandomGraph(4, 1)).ok());
  ASSERT_TRUE(catalog.Insert("parts", RandomGraph(5, 2)).ok());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.name(1), "parts");
  EXPECT_EQ(catalog.graph(1).size(), 5u);
  EXPECT_EQ(catalog.signature(1).size(), 5u);

  auto found = catalog.Find("parts");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1u);
  EXPECT_EQ(catalog.Find("missing").status().code(), StatusCode::kNotFound);

  Status duplicate = catalog.Insert("orders", RandomGraph(3, 3));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.size(), 2u);  // failed insert left no trace
}

TEST(GraphCatalogTest, UpdateEntryKeepsIndexLiveAndSearchBitIdentical) {
  GraphCatalog catalog = MixedCatalog(13, 20);
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);

  Status missing = catalog.UpdateEntry("missing", RandomGraph(5, 1));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // Replace several entries in place — including a width change — and
  // verify the index survives (Insert would have reset it) and that the
  // signature was recomputed from the new graph.
  for (size_t e : {size_t{3}, size_t{4}, size_t{10}}) {
    std::string name = "entry" + std::to_string(e);
    DependencyGraph updated = RandomGraph(5 + e % 2, 9000 + e);
    GraphSignature expected(updated);
    ASSERT_TRUE(catalog.UpdateEntry(name, updated).ok());
    ASSERT_NE(catalog.index(), nullptr);
    auto found = catalog.Find(name);
    ASSERT_TRUE(found.ok());
    const GraphSignature& recomputed = catalog.signature(*found);
    ASSERT_EQ(recomputed.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(recomputed.entropy(i)),
                std::bit_cast<uint64_t>(expected.entropy(i)));
    }
  }

  // The widened index is a pure acceleration structure still: indexed
  // search through the updated catalog is bit-identical to the flat
  // scan, at several thread counts.
  DependencyGraph query = RandomGraph(5, 777);
  CatalogSearchOptions options;
  options.k = 4;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.use_index = false;
  auto flat = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(flat.ok()) << flat.status();
  options.use_index = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto indexed = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    ExpectSameRanking(*flat, *indexed, "updated index vs flat");
  }
}

// Every double a signature holds, as bits.
std::vector<uint64_t> SignatureBits(const GraphSignature& signature) {
  std::vector<uint64_t> bits;
  for (size_t i = 0; i < signature.size(); ++i) {
    bits.push_back(std::bit_cast<uint64_t>(signature.entropy(i)));
    for (size_t p = 0; p < signature.profile_length(); ++p) {
      bits.push_back(std::bit_cast<uint64_t>(signature.ProfileDesc(i)[p]));
      bits.push_back(std::bit_cast<uint64_t>(signature.ProfileAsc(i)[p]));
    }
  }
  return bits;
}

// Every index envelope, as bits, node by node.
std::vector<uint64_t> EnvelopeBits(const CatalogTieredIndex& index) {
  std::vector<uint64_t> bits;
  for (size_t id = 0; id < index.num_nodes(); ++id) {
    const ClusterEnvelope& envelope = index.node(id).envelope;
    for (const std::vector<double>* side :
         {&envelope.entropy_bounds, &envelope.profile_bounds}) {
      bits.push_back(side->size());
      for (double bound : *side) bits.push_back(std::bit_cast<uint64_t>(bound));
    }
    bits.push_back(envelope.min_width);
    bits.push_back(envelope.max_width);
  }
  return bits;
}

TEST(GraphCatalogTest, CopySharesEntriesAndIsolatesUpdates) {
  GraphCatalog original = MixedCatalog(31, 20);
  original.BuildIndex();
  ASSERT_NE(original.index(), nullptr);
  constexpr size_t kUpdated = 7;
  const std::string name = original.name(kUpdated);
  const DependencyGraph* original_graph = &original.graph(kUpdated);
  const size_t original_width = original_graph->size();
  const std::vector<uint64_t> original_signature =
      SignatureBits(original.signature(kUpdated));
  const std::vector<uint64_t> original_envelopes =
      EnvelopeBits(*original.index());

  GraphCatalog copy = original;
  // A wider replacement, so the copy's index must widen its envelopes.
  ASSERT_TRUE(
      copy.UpdateEntry(name, RandomGraph(original_width + 2, 4242)).ok());

  // Untouched entries are the same objects in both catalogs.
  ASSERT_EQ(copy.size(), original.size());
  for (size_t e = 0; e < original.size(); ++e) {
    if (e == kUpdated) continue;
    EXPECT_EQ(&copy.graph(e), &original.graph(e)) << "entry " << e;
    EXPECT_EQ(&copy.signature(e), &original.signature(e)) << "entry " << e;
  }
  EXPECT_EQ(copy.graph(kUpdated).size(), original_width + 2);

  // The update reached neither the original's entry nor its index.
  EXPECT_EQ(&original.graph(kUpdated), original_graph);
  EXPECT_EQ(original.graph(kUpdated).size(), original_width);
  EXPECT_EQ(SignatureBits(original.signature(kUpdated)), original_signature);
  ASSERT_NE(original.index(), nullptr);
  ASSERT_NE(copy.index(), nullptr);
  EXPECT_NE(copy.index(), original.index());
  EXPECT_EQ(EnvelopeBits(*original.index()), original_envelopes);
  EXPECT_NE(EnvelopeBits(*copy.index()), original_envelopes);

  // Each catalog's indexed search equals its own flat scan.
  DependencyGraph query = RandomGraph(5, 4343);
  CatalogSearchOptions options;
  options.k = 5;
  options.match.cardinality = Cardinality::kPartial;
  options.match.metric = MetricKind::kMutualInfoNormal;
  for (const GraphCatalog* catalog : {&original, &copy}) {
    options.use_index = false;
    options.num_threads = 1;
    auto flat = SearchCatalog(query, *catalog, options);
    ASSERT_TRUE(flat.ok()) << flat.status();
    options.use_index = true;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      options.num_threads = threads;
      auto indexed = SearchCatalog(query, *catalog, options);
      ASSERT_TRUE(indexed.ok()) << indexed.status();
      ExpectSameRanking(*flat, *indexed, "indexed vs flat after a copy");
    }
  }
}

TEST(GraphCatalogTest, EntryBoundIsAdmissible) {
  // The prefilter's correctness rests on the bound never undercutting
  // the true optimum: for every metric and cardinality, the certified
  // exhaustive optimum's ranking key must stay <= the signature bound.
  const MetricKind kKinds[] = {
      MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal,
      MetricKind::kEntropyEuclidean, MetricKind::kEntropyNormal};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    DependencyGraph query = RandomGraph(4, seed * 1000);
    GraphSignature query_signature(query);
    for (size_t width : {4u, 5u, 6u}) {
      DependencyGraph entry = RandomGraph(width, seed * 1000 + width);
      GraphSignature entry_signature(entry);
      for (MetricKind kind : kKinds) {
        for (Cardinality cardinality :
             {Cardinality::kOneToOne, Cardinality::kOnto,
              Cardinality::kPartial}) {
          if (cardinality == Cardinality::kOneToOne &&
              width != query.size()) {
            continue;
          }
          Metric metric(kind, 3.0);
          if (cardinality == Cardinality::kPartial && !metric.maximize()) {
            continue;  // monotonic metrics are degenerate under partial
          }
          MatchOptions options;
          options.metric = kind;
          options.cardinality = cardinality;
          options.algorithm = MatchAlgorithm::kExhaustive;
          options.candidates_per_attribute = 0;  // certified optimum
          auto match = MatchGraphs(query, entry, options);
          ASSERT_TRUE(match.ok()) << match.status();
          ASSERT_FALSE(match->budget_exhausted);
          double key = metric.maximize() ? match->metric_value
                                         : -match->metric_value;
          double bound = CatalogEntryBound(query_signature, entry_signature,
                                           metric, cardinality);
          EXPECT_GE(bound, key)
              << "metric " << static_cast<int>(kind) << " cardinality "
              << static_cast<int>(cardinality) << " width " << width
              << " seed " << seed;
        }
      }
    }
  }
}

TEST(GraphCatalogTest, SearchMatchesBruteForceEverywhere) {
  // Prefiltered parallel search must return exactly the brute-force
  // all-pairs top-k, for every cardinality mode and metric direction, at
  // every thread count.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    GraphCatalog catalog = MixedCatalog(seed, 9);
    DependencyGraph query = RandomGraph(5, seed * 31);
    struct Mode {
      Cardinality cardinality;
      MetricKind metric;
    };
    const Mode kModes[] = {
        {Cardinality::kOnto, MetricKind::kMutualInfoNormal},
        {Cardinality::kOnto, MetricKind::kMutualInfoEuclidean},
        {Cardinality::kOneToOne, MetricKind::kEntropyNormal},
        {Cardinality::kOneToOne, MetricKind::kMutualInfoEuclidean},
        {Cardinality::kPartial, MetricKind::kMutualInfoNormal},
    };
    for (const Mode& mode : kModes) {
      CatalogSearchOptions options;
      options.k = 3;
      options.match.cardinality = mode.cardinality;
      options.match.metric = mode.metric;
      options.use_prefilter = false;
      options.num_threads = 1;
      auto brute = SearchCatalog(query, catalog, options);
      ASSERT_TRUE(brute.ok()) << brute.status();
      // Brute force evaluated every compatible entry.
      EXPECT_EQ(brute->stats.entries_pruned, 0u);
      EXPECT_EQ(brute->stats.entries_searched +
                    brute->stats.entries_incompatible,
                brute->stats.entries_total);

      options.use_prefilter = true;
      for (size_t threads : {1u, 2u, 8u}) {
        options.num_threads = threads;
        auto pruned = SearchCatalog(query, catalog, options);
        ASSERT_TRUE(pruned.ok()) << pruned.status();
        ExpectSameRanking(*brute, *pruned, "prefiltered search");
        EXPECT_EQ(pruned->stats.entries_searched +
                      pruned->stats.entries_pruned +
                      pruned->stats.entries_incompatible,
                  pruned->stats.entries_total);
      }
    }
  }
}

TEST(GraphCatalogTest, RankingAgreesWithDirectMatchCalls) {
  // Independent cross-check: keys reported by SearchCatalog equal what a
  // caller gets from MatchGraphs on the same pair.
  GraphCatalog catalog = MixedCatalog(5, 6);
  DependencyGraph query = RandomGraph(5, 77);
  CatalogSearchOptions options;
  options.k = catalog.size();
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  auto result = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->ranked.empty());
  for (const CatalogMatch& ranked : result->ranked) {
    auto direct = MatchGraphs(query, catalog.graph(ranked.entry),
                              options.match);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(std::bit_cast<uint64_t>(ranked.ranking_key),
              std::bit_cast<uint64_t>(direct->metric_value));
    EXPECT_EQ(ranked.match.pairs, direct->pairs);
    EXPECT_EQ(std::bit_cast<uint64_t>(ranked.normalized_score),
              std::bit_cast<uint64_t>(
                  ranked.ranking_key /
                  (static_cast<double>(query.size()) *
                   static_cast<double>(query.size()))));
  }
  // Best first, ties by entry index.
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    const CatalogMatch& prev = result->ranked[i - 1];
    const CatalogMatch& cur = result->ranked[i];
    EXPECT_TRUE(prev.ranking_key > cur.ranking_key ||
                (prev.ranking_key == cur.ranking_key &&
                 prev.entry < cur.entry));
  }
}

TEST(GraphCatalogTest, KLargerThanCatalogReturnsAllCompatible) {
  GraphCatalog catalog = MixedCatalog(13, 6);
  DependencyGraph query = RandomGraph(5, 131);
  CatalogSearchOptions options;
  options.k = 100;
  options.match.cardinality = Cardinality::kOneToOne;
  options.match.metric = MetricKind::kEntropyNormal;
  auto result = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Only the width-5 entries are one-to-one compatible (widths cycle
  // 4, 5, 6 -> two of six).
  EXPECT_EQ(result->ranked.size(), 2u);
  EXPECT_EQ(result->stats.entries_incompatible, 4u);
  EXPECT_EQ(result->stats.entries_pruned, 0u);  // never k completed entries
}

TEST(GraphCatalogTest, FewCandidatesAtEightThreadsMatchTheSerialRanking) {
  // Four compatible entries, k = 3, eight threads: more threads than
  // candidates, and more candidates than k. The search must return
  // exactly the serial ranking.
  GraphCatalog catalog = MixedCatalog(19, 6);
  DependencyGraph query = RandomGraph(5, 191);
  CatalogSearchOptions options;
  options.k = 3;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.num_threads = 8;
  auto parallel = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  options.num_threads = 1;
  auto serial = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ExpectSameRanking(*serial, *parallel, "eight threads vs serial");
}

TEST(GraphCatalogTest, SearchStatsPrintOnOneLine) {
  CatalogSearchStats stats;
  stats.entries_total = 40;
  stats.entries_incompatible = 4;
  stats.entries_pruned = 33;
  stats.entries_searched = 3;
  stats.bound_evaluations = 36;
  stats.cluster_bound_evaluations = 7;
  EXPECT_EQ(stats.ToString(),
            "total=40 incompatible=4 pruned=33 searched=3 bounds=36"
            " cluster_bounds=7");
  EXPECT_EQ(CatalogSearchStats().ToString(),
            "total=0 incompatible=0 pruned=0 searched=0 bounds=0"
            " cluster_bounds=0");
}

TEST(GraphCatalogTest, InsertInvalidatesTheTieredIndex) {
  GraphCatalog catalog = MixedCatalog(23, 6);
  EXPECT_EQ(catalog.index(), nullptr);  // never built
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);
  EXPECT_EQ(catalog.index()->num_entries(), catalog.size());

  // A stale index over 6 entries must not be consulted for 7.
  ASSERT_TRUE(catalog.Insert("late", RandomGraph(5, 2323)).ok());
  EXPECT_EQ(catalog.index(), nullptr);

  // Search still works (flat prefilter) and sees the new entry.
  DependencyGraph query = RandomGraph(5, 2324);
  CatalogSearchOptions options;
  options.k = catalog.size();
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  auto result = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.entries_total, catalog.size());
  EXPECT_EQ(result->stats.cluster_bound_evaluations, 0u);

  // Rebuilding restores indexed search, bit-identically.
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);
  auto indexed = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ExpectSameRanking(*result, *indexed, "rebuilt index");
}

TEST(GraphCatalogTest, BuildIndexOnEmptyAndSingleEntryCatalogs) {
  GraphCatalog empty;
  empty.BuildIndex();
  // An empty tree is represented as "no index"; search stays valid.
  DependencyGraph query = RandomGraph(4, 404);
  CatalogSearchOptions options;
  options.k = 2;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  auto none = SearchCatalog(query, empty, options);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->ranked.empty());

  GraphCatalog single;
  ASSERT_TRUE(single.Insert("only", RandomGraph(4, 405)).ok());
  single.BuildIndex();
  ASSERT_NE(single.index(), nullptr);
  EXPECT_EQ(single.index()->num_entries(), 1u);
  auto one = SearchCatalog(query, single, options);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->ranked.size(), 1u);
  EXPECT_EQ(one->ranked[0].name, "only");
}

TEST(GraphCatalogTest, SearchValidation) {
  GraphCatalog catalog = MixedCatalog(17, 3);
  DependencyGraph query = RandomGraph(4, 171);
  CatalogSearchOptions options;
  options.k = 0;
  EXPECT_FALSE(SearchCatalog(query, catalog, options).ok());

  auto empty_query = DependencyGraph::Create({}, {});
  ASSERT_TRUE(empty_query.ok());
  options.k = 1;
  EXPECT_FALSE(SearchCatalog(*empty_query, catalog, options).ok());

  // Empty catalog: a valid, empty ranking.
  GraphCatalog none;
  auto result = SearchCatalog(query, none, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ranked.empty());
}

}  // namespace
}  // namespace depmatch
