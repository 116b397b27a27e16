#include "depmatch/core/sharded_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_io.h"
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

GraphCatalog MixedCatalog(uint64_t seed, size_t entries) {
  GraphCatalog catalog;
  for (size_t e = 0; e < entries; ++e) {
    size_t width = 4 + e % 3;  // 4, 5, 6
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
    EXPECT_EQ(other.ranked[i].name, base.ranked[i].name)
        << context << " #" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << context << " #" << i;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << context << " #" << i;
  }
}

void ExpectGraphsBitIdentical(const DependencyGraph& a,
                              const DependencyGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.name(i), b.name(i));
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.mi(i, j)),
                std::bit_cast<uint64_t>(b.mi(i, j)));
    }
  }
}

void ExpectSignaturesBitIdentical(const GraphSignature& a,
                                  const GraphSignature& b) {
  ASSERT_EQ(a.size(), b.size());
  size_t length = a.profile_length();
  ASSERT_EQ(b.profile_length(), length);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.entropy(i)),
              std::bit_cast<uint64_t>(b.entropy(i)));
    for (size_t j = 0; j < length; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.ProfileDesc(i)[j]),
                std::bit_cast<uint64_t>(b.ProfileDesc(i)[j]));
      EXPECT_EQ(std::bit_cast<uint64_t>(a.ProfileAsc(i)[j]),
                std::bit_cast<uint64_t>(b.ProfileAsc(i)[j]));
    }
  }
}

// True iff reading the store at `dir` back into a catalog fails. The
// read walks every stage of the store's lazy lifecycle: Open (header),
// EnsureMetadata (section checksums and offset validation), every
// signature (per-entry signature checksums) and every graph (segment
// checksums).
bool StoreRejects(const std::string& dir) {
  return !ReadShardedCatalog(dir).ok();
}

// Manifest byte offset of each entry's signature. Signatures are
// contiguous in entry order, 8·w² bytes each, starting at the offset in
// the signature heap's section descriptor (the third, at header byte 64).
std::vector<size_t> SignatureOffsets(const std::string& manifest,
                                     const GraphCatalog& catalog) {
  size_t cursor = 64;
  uint64_t offset = 0;
  EXPECT_TRUE(graphio::ReadU64(manifest, &cursor, &offset));
  std::vector<size_t> offsets;
  for (size_t e = 0; e < catalog.size(); ++e) {
    const size_t width = catalog.graph(e).size();
    offsets.push_back(static_cast<size_t>(offset));
    offset += 8 * width * width;
  }
  return offsets;
}

// Overwrites bytes [at, at + 4) with `value`, little-endian.
void PutU32(std::string* bytes, size_t at, uint32_t value) {
  std::string le;
  graphio::AppendU32(&le, value);
  bytes->replace(at, 4, le);
}

// Flips the middle byte of the signature of every entry `corrupt` picks.
void CorruptSignatures(const std::string& dir, const GraphCatalog& catalog,
                       const std::function<bool(size_t)>& corrupt) {
  const std::string path = dir + "/MANIFEST.dms";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
  const std::vector<size_t> offsets = SignatureOffsets(bytes, catalog);
  for (size_t e = 0; e < catalog.size(); ++e) {
    if (!corrupt(e)) continue;
    const size_t width = catalog.graph(e).size();
    char& byte = bytes[offsets[e] + 4 * width * width];
    byte = static_cast<char>(byte ^ 0x5A);
  }
  ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());
}

CatalogSearchOptions DefaultSearch() {
  CatalogSearchOptions options;
  options.k = 4;
  options.match.cardinality = Cardinality::kOnto;
  options.match.metric = MetricKind::kMutualInfoNormal;
  return options;
}

TEST(ShardedStoreTest, RoundTripIsBitIdenticalIncludingTheIndex) {
  GraphCatalog catalog = MixedCatalog(21, 9);
  catalog.BuildIndex();
  ASSERT_NE(catalog.index(), nullptr);
  std::string dir = testing::TempDir() + "/sharded_roundtrip";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 2;  // force entries across shard boundaries
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());

  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->size(), catalog.size());
  EXPECT_EQ(store->num_segments(), (catalog.size() + 1) / 2);
  ASSERT_TRUE(store->EnsureMetadata().ok());

  // The persisted tiered index round-trips structurally.
  const CatalogTieredIndex* stored_index = store->index();
  ASSERT_NE(stored_index, nullptr);
  EXPECT_EQ(stored_index->num_entries(), catalog.index()->num_entries());
  EXPECT_EQ(stored_index->num_nodes(), catalog.index()->num_nodes());
  EXPECT_EQ(stored_index->entry_order(), catalog.index()->entry_order());

  for (size_t e = 0; e < catalog.size(); ++e) {
    EXPECT_EQ(store->name(e), catalog.name(e));
    EXPECT_EQ(store->width(e), catalog.graph(e).size());
    auto signature = store->signature(e);
    ASSERT_TRUE(signature.ok()) << signature.status();
    ExpectSignaturesBitIdentical(**signature, catalog.signature(e));
    auto graph = store->graph(e);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ExpectGraphsBitIdentical(**graph, catalog.graph(e));
  }

  // A search through the store is indistinguishable from the in-memory
  // catalog, at every thread count.
  DependencyGraph query = RandomGraph(5, 2121);
  CatalogSearchOptions options = DefaultSearch();
  auto mem = SearchCatalog(query, catalog, options);
  ASSERT_TRUE(mem.ok()) << mem.status();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto sharded = SearchShardedCatalog(query, *store, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ExpectSameRanking(*mem, *sharded, "sharded search");
  }
}

TEST(ShardedStoreTest, WriteWithoutIndexOpensWithoutIndex) {
  GraphCatalog catalog = MixedCatalog(33, 5);  // no BuildIndex call
  std::string dir = testing::TempDir() + "/sharded_no_index";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->EnsureMetadata().ok());
  EXPECT_EQ(store->index(), nullptr);

  // Search falls back to the flat prefilter and still matches memory.
  DependencyGraph query = RandomGraph(5, 3333);
  auto mem = SearchCatalog(query, catalog, DefaultSearch());
  auto sharded = SearchShardedCatalog(query, *store, DefaultSearch());
  ASSERT_TRUE(mem.ok()) << mem.status();
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ExpectSameRanking(*mem, *sharded, "flat sharded search");
}

TEST(ShardedStoreTest, EmptyCatalogRoundTrips) {
  GraphCatalog catalog;
  std::string dir = testing::TempDir() + "/sharded_empty";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->num_segments(), 0u);
  ASSERT_TRUE(store->EnsureMetadata().ok());
  EXPECT_EQ(store->index(), nullptr);

  DependencyGraph query = RandomGraph(4, 4444);
  auto result = SearchShardedCatalog(query, *store, DefaultSearch());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ranked.empty());
  EXPECT_EQ(result->stats.entries_total, 0u);

  auto loaded = ReadShardedCatalog(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->empty());
}

TEST(ShardedStoreTest, SingleEntryStore) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Insert("only", RandomGraph(5, 5150)).ok());
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_single";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->num_segments(), 1u);
  ASSERT_TRUE(store->EnsureMetadata().ok());
  EXPECT_EQ(store->name(0), "only");

  DependencyGraph query = RandomGraph(5, 5151);
  auto mem = SearchCatalog(query, catalog, DefaultSearch());
  auto sharded = SearchShardedCatalog(query, *store, DefaultSearch());
  ASSERT_TRUE(mem.ok()) << mem.status();
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_EQ(sharded->ranked.size(), 1u);
  ExpectSameRanking(*mem, *sharded, "single entry");
}

TEST(ShardedStoreTest, DuplicateSignatureEntriesAcrossShards) {
  // The same graph under different names lands in different segment
  // files (one entry per segment); ties must resolve by entry index,
  // identically to the in-memory catalog.
  GraphCatalog catalog;
  DependencyGraph twin = RandomGraph(5, 616);
  ASSERT_TRUE(catalog.Insert("twin_b", twin).ok());
  ASSERT_TRUE(catalog.Insert("other", RandomGraph(5, 617)).ok());
  ASSERT_TRUE(catalog.Insert("twin_a", twin).ok());
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_twins";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 1;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->num_segments(), 3u);

  CatalogSearchOptions options = DefaultSearch();
  options.k = 3;
  DependencyGraph query = twin;  // both twins score identically
  auto mem = SearchCatalog(query, catalog, options);
  auto sharded = SearchShardedCatalog(query, *store, options);
  ASSERT_TRUE(mem.ok()) << mem.status();
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_EQ(sharded->ranked.size(), 3u);
  ExpectSameRanking(*mem, *sharded, "duplicate signatures");
  // The tie between the twins broke by insertion index.
  EXPECT_EQ(sharded->ranked[0].entry, 0u);
  EXPECT_EQ(sharded->ranked[0].name, "twin_b");
  EXPECT_EQ(sharded->ranked[1].entry, 2u);
  EXPECT_EQ(sharded->ranked[1].name, "twin_a");
  EXPECT_EQ(std::bit_cast<uint64_t>(sharded->ranked[0].ranking_key),
            std::bit_cast<uint64_t>(sharded->ranked[1].ranking_key));
}

TEST(ShardedStoreTest, ReadCatalogRoundTripIsBitIdentical) {
  GraphCatalog catalog = MixedCatalog(7, 6);
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_read_roundtrip";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 4;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());

  auto loaded = ReadShardedCatalog(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), catalog.size());
  // The persisted index is not installed.
  EXPECT_EQ(loaded->index(), nullptr);
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  for (size_t e = 0; e < catalog.size(); ++e) {
    EXPECT_EQ(loaded->name(e), catalog.name(e));
    ExpectGraphsBitIdentical(loaded->graph(e), catalog.graph(e));
    // Insert recomputed the signature; it equals the persisted one.
    auto stored = store->signature(e);
    ASSERT_TRUE(stored.ok()) << stored.status();
    ExpectSignaturesBitIdentical(loaded->signature(e), **stored);
  }

  // A search over the read catalog ranks exactly like one over the
  // source, flat and after BuildIndex, at 1 and 4 threads.
  DependencyGraph query = RandomGraph(5, 99);
  CatalogSearchOptions options = DefaultSearch();
  options.k = 3;
  for (bool indexed : {false, true}) {
    if (indexed) {
      loaded->BuildIndex();
      ASSERT_NE(loaded->index(), nullptr);
    }
    options.use_index = indexed;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      options.num_threads = threads;
      auto original = SearchCatalog(query, catalog, options);
      auto reloaded = SearchCatalog(query, *loaded, options);
      ASSERT_TRUE(original.ok()) << original.status();
      ASSERT_TRUE(reloaded.ok()) << reloaded.status();
      ExpectSameRanking(*original, *reloaded,
                        indexed ? "indexed read catalog" : "flat read catalog");
    }
  }
}

TEST(ShardedStoreTest, OpenRejectsMissingAndForeignFiles) {
  EXPECT_FALSE(ShardedCatalogStore::Open(testing::TempDir() + "/no_such_dir")
                   .ok());
  EXPECT_EQ(ReadShardedCatalog(testing::TempDir() + "/no_such_dir")
                .status()
                .code(),
            StatusCode::kNotFound);
  // A directory whose manifest is a different format entirely.
  std::string dir = testing::TempDir() + "/sharded_foreign";
  GraphCatalog catalog = MixedCatalog(71, 2);
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  // Overwrite the manifest with a DMG1 graph blob.
  ASSERT_TRUE(graphio::WriteStringToFile(dir + "/MANIFEST.dms",
                                         SerializeGraphBinary(catalog.graph(0)))
                  .ok());
  EXPECT_TRUE(StoreRejects(dir));
}

TEST(ShardedStoreTest, EveryManifestCorruptionIsDetected) {
  GraphCatalog catalog = MixedCatalog(55, 4);
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_corrupt_manifest";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 2;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  std::string manifest_path = dir + "/MANIFEST.dms";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(manifest_path, &bytes).ok());

  // Every single-byte flip across the whole manifest — header, entry
  // table, name heap, signature heap, index, segment table — must be
  // caught (every byte is covered by exactly one checksum).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    ASSERT_TRUE(graphio::WriteStringToFile(manifest_path, corrupted).ok());
    EXPECT_TRUE(StoreRejects(dir)) << "manifest flip at byte " << i;
  }
  // Every truncation too.
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    ASSERT_TRUE(
        graphio::WriteStringToFile(manifest_path, bytes.substr(0, keep)).ok());
    EXPECT_TRUE(StoreRejects(dir)) << "manifest truncated to " << keep;
  }
  // Restoring the original bytes restores a fully working store.
  ASSERT_TRUE(graphio::WriteStringToFile(manifest_path, bytes).ok());
  EXPECT_FALSE(StoreRejects(dir));
}

TEST(ShardedStoreTest, EverySegmentCorruptionIsDetected) {
  GraphCatalog catalog = MixedCatalog(56, 4);
  std::string dir = testing::TempDir() + "/sharded_corrupt_segment";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 2;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  for (size_t segment = 0; segment < 2; ++segment) {
    char name[32];
    std::snprintf(name, sizeof(name), "/segment-%05zu.seg", segment);
    std::string path = dir + name;
    std::string bytes;
    ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
    for (size_t i = 0; i < bytes.size(); i += 5) {
      std::string corrupted = bytes;
      corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
      ASSERT_TRUE(graphio::WriteStringToFile(path, corrupted).ok());
      EXPECT_TRUE(StoreRejects(dir))
          << "segment " << segment << " flip at byte " << i;
    }
    for (size_t keep = 0; keep < bytes.size(); keep += 7) {
      ASSERT_TRUE(
          graphio::WriteStringToFile(path, bytes.substr(0, keep)).ok());
      EXPECT_TRUE(StoreRejects(dir))
          << "segment " << segment << " truncated to " << keep;
    }
    // Deleting the segment outright is caught on first touch.
    ASSERT_EQ(std::remove(path.c_str()), 0);
    EXPECT_TRUE(StoreRejects(dir)) << "segment " << segment << " missing";
    ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());
  }
  EXPECT_FALSE(StoreRejects(dir));
}

TEST(ShardedStoreTest, FailedSearchReportsTheSameEntryAtEveryThreadCount) {
  GraphCatalog catalog = MixedCatalog(61, 200);
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_failed_search";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 8;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  // One flipped byte per segment: every graph load fails its checksum,
  // while the manifest (signatures, index) stays intact.
  for (size_t segment = 0; segment < 25; ++segment) {
    char name[32];
    std::snprintf(name, sizeof(name), "/segment-%05zu.seg", segment);
    std::string path = dir + name;
    std::string bytes;
    ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok()) << path;
    char& byte = bytes[bytes.size() / 2];
    byte = static_cast<char>(byte ^ 0x5A);
    ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());
  }

  DependencyGraph query = RandomGraph(5, 6161);
  CatalogSearchOptions options = DefaultSearch();
  // A 1-thread search takes the highest-bound compatible entry first and
  // fails on it; every other thread count and path must report the same.
  const Metric metric(options.match.metric, options.match.alpha);
  const GraphSignature query_signature(query);
  size_t first = catalog.size();
  double best = -std::numeric_limits<double>::infinity();
  for (size_t e = 0; e < catalog.size(); ++e) {
    if (catalog.graph(e).size() < query.size()) continue;  // onto
    double bound = CatalogEntryBound(query_signature, catalog.signature(e),
                                     metric, options.match.cardinality);
    if (bound > best) {
      best = bound;
      first = e;
    }
  }
  ASSERT_LT(first, catalog.size());
  const std::string prefix = "searching catalog entry " +
                             std::to_string(first) + " ('" +
                             catalog.name(first) + "'): ";

  std::optional<Status> reference;
  for (bool use_index : {true, false}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      auto store = ShardedCatalogStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status();
      options.use_index = use_index;
      options.num_threads = threads;
      auto result = SearchShardedCatalog(query, *store, options);
      ASSERT_FALSE(result.ok()) << "index " << use_index << " threads "
                                << threads;
      EXPECT_EQ(result.status().message().rfind(prefix, 0), 0u)
          << result.status();
      if (!reference.has_value()) {
        reference = result.status();
        continue;
      }
      EXPECT_EQ(result.status().ToString(), reference->ToString())
          << "index " << use_index << " threads " << threads;
    }
  }
}

TEST(ShardedStoreTest, CorruptSignaturesFailEachPathAlikeAtEveryThreadCount) {
  GraphCatalog catalog = MixedCatalog(62, 120);
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_corrupt_signatures";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 8;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  DependencyGraph query = RandomGraph(5, 6262);
  // Every entry an onto search of a 5-wide query can read.
  CorruptSignatures(dir, catalog, [&](size_t e) {
    return catalog.graph(e).size() >= query.size();
  });

  CatalogSearchOptions options = DefaultSearch();
  for (bool use_index : {true, false}) {
    std::optional<Status> reference;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      auto store = ShardedCatalogStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status();
      // The metadata reads no signature byte, so it stays intact.
      ASSERT_TRUE(store->EnsureMetadata().ok());
      options.use_index = use_index;
      options.num_threads = threads;
      auto result = SearchShardedCatalog(query, *store, options);
      ASSERT_FALSE(result.ok()) << "index " << use_index << " threads "
                                << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(result.status().message().rfind("searching catalog entry ", 0),
                0u)
          << result.status();
      EXPECT_NE(result.status().message().find("signature checksum mismatch"),
                std::string::npos)
          << result.status();
      if (!reference.has_value()) {
        reference = result.status();
        continue;
      }
      EXPECT_EQ(result.status().ToString(), reference->ToString())
          << "index " << use_index << " threads " << threads;
    }
    if (!use_index) {
      // The flat pass evaluates bounds in entry order, so it fails on the
      // first compatible entry: entry 1, the first of width 5.
      ASSERT_TRUE(reference.has_value());
      EXPECT_EQ(reference->message().rfind(
                    "searching catalog entry 1 ('entry1'): sharded store entry "
                    "1 ('entry1') signature checksum mismatch",
                    0),
                0u)
          << *reference;
    }
  }
}

TEST(ShardedStoreTest, CorruptSignatureNoSearchReadsFailsOnlyAFullWalk) {
  GraphCatalog catalog = MixedCatalog(63, 30);
  catalog.BuildIndex();
  std::string dir = testing::TempDir() + "/sharded_corrupt_unread_signature";
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 4;
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  // Entry 0 is 4 wide: an onto search of a 5-wide query never reads it.
  DependencyGraph query = RandomGraph(5, 6363);
  ASSERT_LT(catalog.graph(0).size(), query.size());
  CorruptSignatures(dir, catalog, [](size_t e) { return e == 0; });

  CatalogSearchOptions options = DefaultSearch();
  for (bool use_index : {true, false}) {
    options.use_index = use_index;
    options.num_threads = 1;
    auto mem = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(mem.ok()) << mem.status();
    for (size_t threads : {1u, 4u}) {
      auto store = ShardedCatalogStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status();
      options.num_threads = threads;
      auto sharded = SearchShardedCatalog(query, *store, options);
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      ExpectSameRanking(*mem, *sharded,
                        use_index ? "tiered search" : "flat search");
    }
  }

  // A walk over every signature still finds the flipped byte.
  EXPECT_TRUE(StoreRejects(dir));
  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  auto signature = store->signature(0);
  ASSERT_FALSE(signature.ok());
  EXPECT_EQ(signature.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(signature.status().message().rfind(
                "sharded store entry 0 ('entry0') signature checksum mismatch",
                0),
            0u)
      << signature.status();
  // The failure is cached, and the other entries stay readable.
  EXPECT_EQ(store->signature(0).status().ToString(),
            signature.status().ToString());
  EXPECT_TRUE(store->signature(1).ok());
}

TEST(ShardedStoreTest, SignaturesMustTileTheHeap) {
  GraphCatalog catalog = MixedCatalog(73, 3);
  std::string dir = testing::TempDir() + "/sharded_signature_overlap";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  const std::string path = dir + "/MANIFEST.dms";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
  // Entry 1's signature offset (record bytes 48-55; 60-byte records from
  // byte 128) set to entry 0's, with the entry-table CRC (descriptor 0,
  // bytes 40-43) and the header CRC (bytes 124-127) resealed: every
  // checksum holds, but entry 1 would read entry 0's bytes and leave its
  // own unchecked.
  bytes.replace(128 + 60 + 48, 8, bytes.substr(128 + 48, 8));
  PutU32(&bytes, 40,
         graphio::Crc32(std::string_view(bytes).substr(128, 3 * 60)));
  PutU32(&bytes, 124, graphio::Crc32(std::string_view(bytes).substr(0, 124)));
  ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());

  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  Status metadata = store->EnsureMetadata();
  ASSERT_FALSE(metadata.ok());
  EXPECT_EQ(metadata.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(metadata.message().find("entry 1 signature does not tile"),
            std::string::npos)
      << metadata;
}

TEST(ShardedStoreTest, OpenRejectsFormatVersionOne) {
  GraphCatalog catalog = MixedCatalog(72, 3);
  std::string dir = testing::TempDir() + "/sharded_version_one";
  ASSERT_TRUE(WriteShardedCatalog(catalog, dir).ok());
  const std::string path = dir + "/MANIFEST.dms";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
  // Version field (bytes 4-7) set to 1, header CRC (bytes 124-127)
  // resealed over bytes 0-123, so only the version can reject it.
  PutU32(&bytes, 4, 1);
  PutU32(&bytes, 124, graphio::Crc32(std::string_view(bytes).substr(0, 124)));
  ASSERT_TRUE(graphio::WriteStringToFile(path, bytes).ok());

  auto store = ShardedCatalogStore::Open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.status().message(),
            "unsupported sharded store format version 1 (expected 2)");
}

}  // namespace
}  // namespace depmatch
