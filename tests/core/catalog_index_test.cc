#include "depmatch/core/catalog_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/graph_corpus.h"
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

// Mixed-width catalog including the degenerate shapes the envelope
// flags exist for: an empty graph and a single-node (profile-less) one.
GraphCatalog DegenerateMixedCatalog(uint64_t seed, size_t entries) {
  GraphCatalog catalog;
  auto empty = DependencyGraph::Create({}, {});
  EXPECT_TRUE(empty.ok());
  EXPECT_TRUE(catalog.Insert("empty", *std::move(empty)).ok());
  EXPECT_TRUE(catalog.Insert("lonely", RandomGraph(1, seed)).ok());
  for (size_t e = 0; e < entries; ++e) {
    size_t width = 2 + e % 4;  // 2..5
    EXPECT_TRUE(catalog
                    .Insert("entry" + std::to_string(e),
                            RandomGraph(width, seed * 100 + e))
                    .ok());
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
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << context << " #" << i;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << context << " #" << i;
  }
}

TEST(CatalogIndexTest, BuildProducesAValidTreeOverThePermutation) {
  GraphCatalog catalog = DegenerateMixedCatalog(3, 30);
  std::vector<const GraphSignature*> signatures;
  for (size_t e = 0; e < catalog.size(); ++e) {
    signatures.push_back(&catalog.signature(e));
  }
  CatalogIndexOptions options;
  options.leaf_size = 4;
  CatalogTieredIndex index = CatalogTieredIndex::Build(signatures, options);
  ASSERT_FALSE(index.empty());
  ASSERT_EQ(index.num_entries(), catalog.size());

  // entry_order is a permutation of [0, N).
  std::vector<size_t> sorted = index.entry_order();
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> iota(catalog.size());
  std::iota(iota.begin(), iota.end(), size_t{0});
  EXPECT_EQ(sorted, iota);

  // The root covers everything; every internal node's children follow
  // it and partition its range; envelope widths bracket the members.
  const TieredIndexNode& root = index.node(index.root());
  EXPECT_EQ(root.begin, 0u);
  EXPECT_EQ(root.end, catalog.size());
  for (size_t id = 0; id < index.num_nodes(); ++id) {
    const TieredIndexNode& node = index.node(id);
    ASSERT_LE(node.begin, node.end);
    EXPECT_EQ(node.left >= 0, node.right >= 0);
    if (node.left >= 0) {
      const TieredIndexNode& left = index.node(static_cast<size_t>(node.left));
      const TieredIndexNode& right =
          index.node(static_cast<size_t>(node.right));
      EXPECT_GT(static_cast<size_t>(node.left), id);
      EXPECT_GT(static_cast<size_t>(node.right), id);
      EXPECT_EQ(left.begin, node.begin);
      EXPECT_EQ(left.end, right.begin);
      EXPECT_EQ(right.end, node.end);
    } else {
      EXPECT_LE(node.end - node.begin, options.leaf_size);
    }
    for (size_t i = node.begin; i < node.end; ++i) {
      size_t entry = index.entry_order()[i];
      size_t width = catalog.signature(entry).size();
      EXPECT_GE(width, node.envelope.min_width);
      EXPECT_LE(width, node.envelope.max_width);
    }
  }

  // Round trip through FromParts (what the sharded store does) is
  // accepted and preserves the structure.
  std::vector<TieredIndexNode> nodes;
  for (size_t id = 0; id < index.num_nodes(); ++id) {
    nodes.push_back(index.node(id));
  }
  CatalogTieredIndex rebuilt =
      CatalogTieredIndex::FromParts(index.entry_order(), std::move(nodes));
  ASSERT_FALSE(rebuilt.empty());
  EXPECT_EQ(rebuilt.num_nodes(), index.num_nodes());
  EXPECT_EQ(rebuilt.entry_order(), index.entry_order());
}

TEST(CatalogIndexTest, ClusterBoundDominatesEveryMemberEntryBound) {
  // The heart of the bit-identity argument: for every node of the tree,
  // the cluster bound must not undercut any member's per-entry bound —
  // otherwise a subtree prune could drop an entry the flat prefilter
  // would have searched. Certified across every metric x cardinality
  // mode, over a catalog that includes empty and single-node members.
  const MetricKind kKinds[] = {
      MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal,
      MetricKind::kEntropyEuclidean, MetricKind::kEntropyNormal};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    GraphCatalog catalog = DegenerateMixedCatalog(seed, 24);
    std::vector<const GraphSignature*> signatures;
    for (size_t e = 0; e < catalog.size(); ++e) {
      signatures.push_back(&catalog.signature(e));
    }
    CatalogIndexOptions options;
    options.leaf_size = 3;
    options.envelope_intervals = 4;  // coarse coverage must still dominate
    CatalogTieredIndex index = CatalogTieredIndex::Build(signatures, options);
    ASSERT_FALSE(index.empty());
    for (size_t query_width : {size_t{3}, size_t{5}}) {
      DependencyGraph query = RandomGraph(query_width, seed * 977);
      GraphSignature query_signature(query);
      for (MetricKind kind : kKinds) {
        Metric metric(kind, 3.0);
        for (Cardinality cardinality :
             {Cardinality::kOneToOne, Cardinality::kOnto,
              Cardinality::kPartial}) {
          for (size_t id = 0; id < index.num_nodes(); ++id) {
            double cluster = index.ClusterBound(id, query_signature, metric,
                                                cardinality);
            const TieredIndexNode& node = index.node(id);
            for (size_t i = node.begin; i < node.end; ++i) {
              size_t entry = index.entry_order()[i];
              double member = CatalogEntryBound(
                  query_signature, catalog.signature(entry), metric,
                  cardinality);
              // Dominance holds exactly in real arithmetic; allow the
              // shared deterministic slack's magnitude for fp noise.
              EXPECT_GE(cluster, member - 1e-9)
                  << "node " << id << " entry " << entry << " metric "
                  << static_cast<int>(kind) << " cardinality "
                  << static_cast<int>(cardinality) << " seed " << seed;
            }
          }
        }
      }
    }
  }
}

TEST(CatalogIndexTest, UpdateEntryWidensPathAndKeepsDominance) {
  // The live-refresh path: after an entry's signature changes in place,
  // the widened envelopes must still dominate every member's entry
  // bound — the same certificate the fresh Build() carries, against the
  // *updated* signature set. Updates deliberately include degenerate
  // transitions (the empty entry growing wide, a wide entry shrinking
  // to a single profile-less node).
  GraphCatalog catalog = DegenerateMixedCatalog(5, 24);
  std::vector<GraphSignature> signatures;
  signatures.reserve(catalog.size());
  for (size_t e = 0; e < catalog.size(); ++e) {
    signatures.push_back(catalog.signature(e));
  }
  std::vector<const GraphSignature*> pointers;
  for (const GraphSignature& s : signatures) pointers.push_back(&s);
  CatalogIndexOptions options;
  options.leaf_size = 3;
  options.envelope_intervals = 4;
  CatalogTieredIndex index = CatalogTieredIndex::Build(pointers, options);
  ASSERT_FALSE(index.empty());

  EXPECT_FALSE(index.UpdateEntry(catalog.size(), signatures[0], options));

  struct Update {
    size_t entry;
    size_t width;
  };
  const Update kUpdates[] = {{0, 6}, {1, 1}, {2, 1}, {7, 8}, {11, 2}};
  for (const Update& update : kUpdates) {
    DependencyGraph graph = RandomGraph(update.width, 7000 + update.entry);
    signatures[update.entry] = GraphSignature(graph);
    ASSERT_TRUE(
        index.UpdateEntry(update.entry, signatures[update.entry], options));
  }

  DependencyGraph query = RandomGraph(5, 4242);
  GraphSignature query_signature(query);
  for (MetricKind kind :
       {MetricKind::kMutualInfoNormal, MetricKind::kMutualInfoEuclidean}) {
    Metric metric(kind, 3.0);
    for (Cardinality cardinality :
         {Cardinality::kOneToOne, Cardinality::kOnto, Cardinality::kPartial}) {
      for (size_t id = 0; id < index.num_nodes(); ++id) {
        double cluster =
            index.ClusterBound(id, query_signature, metric, cardinality);
        const TieredIndexNode& node = index.node(id);
        for (size_t i = node.begin; i < node.end; ++i) {
          size_t entry = index.entry_order()[i];
          double member = CatalogEntryBound(query_signature, signatures[entry],
                                            metric, cardinality);
          EXPECT_GE(cluster, member - 1e-9)
              << "node " << id << " entry " << entry << " metric "
              << static_cast<int>(kind) << " cardinality "
              << static_cast<int>(cardinality);
        }
      }
    }
  }
}

TEST(CatalogIndexTest, FromPartsRejectsStructurallyInvalidInput) {
  GraphCatalog catalog = DegenerateMixedCatalog(9, 12);
  std::vector<const GraphSignature*> signatures;
  for (size_t e = 0; e < catalog.size(); ++e) {
    signatures.push_back(&catalog.signature(e));
  }
  CatalogIndexOptions options;
  options.leaf_size = 3;
  CatalogTieredIndex good = CatalogTieredIndex::Build(signatures, options);
  ASSERT_FALSE(good.empty());
  ASSERT_GT(good.num_nodes(), 1u);
  std::vector<size_t> order = good.entry_order();
  std::vector<TieredIndexNode> nodes;
  for (size_t id = 0; id < good.num_nodes(); ++id) {
    nodes.push_back(good.node(id));
  }

  auto expect_rejected = [&](std::vector<size_t> bad_order,
                             std::vector<TieredIndexNode> bad_nodes,
                             const char* what) {
    CatalogTieredIndex parsed = CatalogTieredIndex::FromParts(
        std::move(bad_order), std::move(bad_nodes));
    EXPECT_TRUE(parsed.empty()) << what;
  };

  // Duplicate in the permutation.
  {
    std::vector<size_t> bad = order;
    bad[1] = bad[0];
    expect_rejected(std::move(bad), nodes, "duplicate entry in order");
  }
  // Out-of-range entry id.
  {
    std::vector<size_t> bad = order;
    bad[0] = order.size();
    expect_rejected(std::move(bad), nodes, "entry id out of range");
  }
  // Root must cover [0, N).
  {
    std::vector<TieredIndexNode> bad = nodes;
    bad[0].end -= 1;
    expect_rejected(order, std::move(bad), "root does not cover all entries");
  }
  // A child pointing backwards (cycle).
  {
    std::vector<TieredIndexNode> bad = nodes;
    size_t internal = 0;
    while (internal < bad.size() && bad[internal].left < 0) ++internal;
    ASSERT_LT(internal, bad.size());
    bad[internal].left = static_cast<int64_t>(internal);
    expect_rejected(order, std::move(bad), "child id <= parent id");
  }
  // Children failing to partition the parent's range.
  {
    std::vector<TieredIndexNode> bad = nodes;
    size_t internal = 0;
    while (internal < bad.size() && bad[internal].left < 0) ++internal;
    ASSERT_LT(internal, bad.size());
    bad[static_cast<size_t>(bad[internal].left)].end += 1;
    expect_rejected(order, std::move(bad), "children do not partition");
  }
  // One-sided node (left child without right).
  {
    std::vector<TieredIndexNode> bad = nodes;
    size_t internal = 0;
    while (internal < bad.size() && bad[internal].left < 0) ++internal;
    ASSERT_LT(internal, bad.size());
    bad[internal].right = -1;
    expect_rejected(order, std::move(bad), "one-sided internal node");
  }
  // Malformed envelope: odd bounds length.
  {
    std::vector<TieredIndexNode> bad = nodes;
    bad[0].envelope.entropy_bounds.push_back(1.0);
    if (bad[0].envelope.entropy_bounds.size() % 2 == 0) {
      bad[0].envelope.entropy_bounds.push_back(2.0);
    }
    expect_rejected(order, std::move(bad), "odd envelope bounds");
  }
  // Malformed envelope: descending bounds.
  {
    std::vector<TieredIndexNode> bad = nodes;
    bad[0].envelope.profile_bounds = {2.0, 1.0};
    expect_rejected(order, std::move(bad), "descending envelope bounds");
  }
}

TEST(CatalogIndexTest, TieredSearchIsBitIdenticalAndEvaluatesFewerBounds) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  corpus.seed = 41;
  corpus.query_width = 6;
  corpus.min_width = 3;
  corpus.max_width = 9;
  const size_t kEntries = 400;
  for (size_t e = 0; e < kEntries; ++e) {
    ASSERT_TRUE(
        catalog.Insert(CorpusEntryName(e), CorpusEntry(corpus, e)).ok());
  }
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);
  DependencyGraph query = CorpusQuery(corpus);

  CatalogSearchOptions options;
  options.k = 5;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.match.algorithm = MatchAlgorithm::kGreedy;
  options.use_index = false;
  auto flat = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(flat->stats.cluster_bound_evaluations, 0u);
  // Flat prefilter bounds every compatible entry.
  EXPECT_EQ(flat->stats.bound_evaluations,
            flat->stats.entries_total - flat->stats.entries_incompatible);

  options.use_index = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto tiered = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(tiered.ok()) << tiered.status();
    ExpectSameRanking(*flat, *tiered, "tiered vs flat");
    EXPECT_EQ(tiered->stats.entries_searched + tiered->stats.entries_pruned +
                  tiered->stats.entries_incompatible,
              tiered->stats.entries_total);
    EXPECT_GT(tiered->stats.cluster_bound_evaluations, 0u);
    // The point of the tree: far fewer per-entry bound evaluations than
    // the flat pass (cluster evaluations included in the comparison).
    EXPECT_LT(tiered->stats.bound_evaluations +
                  tiered->stats.cluster_bound_evaluations,
              flat->stats.bound_evaluations / 2);
  }
}

TEST(CatalogIndexTest, TenThousandEntryCorpusIdentityAcrossThreadsAndStores) {
  // The ISSUE acceptance gate: on a >= 10K synthetic corpus, the
  // tiered + sharded search returns the flat brute-force scan's top-k
  // bit-for-bit at 1, 2, and 8 threads.
  GraphCorpusOptions corpus;
  corpus.seed = 57;
  corpus.query_width = 6;
  corpus.min_width = 3;
  corpus.max_width = 9;
  corpus.related_fraction = 0.002;
  corpus.mild_fraction = 0.01;
  const size_t kEntries = 10000;
  GraphCatalog catalog;
  for (size_t e = 0; e < kEntries; ++e) {
    ASSERT_TRUE(
        catalog.Insert(CorpusEntryName(e), CorpusEntry(corpus, e)).ok());
  }
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);
  DependencyGraph query = CorpusQuery(corpus);

  std::string dir = testing::TempDir() + "/ten_k_store";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(store->size(), kEntries);

  CatalogSearchOptions options;
  options.k = 10;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  options.match.algorithm = MatchAlgorithm::kGreedy;

  // Brute force: no prefilter, no index — a full match per compatible
  // entry.
  options.use_prefilter = false;
  options.use_index = false;
  options.num_threads = 1;
  auto brute = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(brute.ok()) << brute.status();
  EXPECT_EQ(brute->stats.entries_pruned, 0u);

  options.use_prefilter = true;
  options.use_index = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto tiered = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(tiered.ok()) << tiered.status();
    ExpectSameRanking(*brute, *tiered, "10K in-memory tiered");
    auto sharded = SearchShardedCatalog(query, *store, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ExpectSameRanking(*brute, *sharded, "10K sharded tiered");
    // Sublinearity in action: bounding work is a small fraction of the
    // corpus.
    EXPECT_LT(tiered->stats.bound_evaluations +
                  tiered->stats.cluster_bound_evaluations,
              kEntries / 4);
  }
}

}  // namespace
}  // namespace depmatch
