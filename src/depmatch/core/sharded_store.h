// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ShardedCatalogStore: segmented, memory-mapped persistence for large
// graph catalogs (ROADMAP item 1: corpora of 10^5+ tables).
//
// The monolithic DMC1 file (core/graph_catalog.h) deserializes every
// graph at load, so opening a 100K-entry catalog costs O(corpus) even
// when a query will touch a handful of entries. The sharded layout
// splits the same content across a directory:
//
//   <dir>/MANIFEST.dms       fixed 128-byte header + five contiguous
//                            sections (entry table, name heap,
//                            signature heap, tiered index, segment
//                            table), each with its own CRC-32 recorded
//                            in the header's section descriptors
//   <dir>/segment-NNNNN.seg  concatenated DMG1 graph blobs for a
//                            contiguous slice of entries, with a
//                            whole-file CRC-32 in the segment table
//
// All integers are fixed-width little-endian and all doubles raw
// IEEE-754 bit patterns (graph/graph_io.h primitives), so a round trip
// through the store reproduces graphs, signatures, and the tiered index
// bit-identically. Sections are laid out back to back with no padding;
// every byte of every file is covered by exactly one checksum, and any
// single-byte corruption or truncation surfaces as InvalidArgument.
//
// Lazy lifecycle — the point of the format:
//   * Open() memory-maps the manifest and verifies only the fixed-size
//     header (magic, version, counts, section descriptor CRC): O(1)
//     regardless of corpus size.
//   * EnsureMetadata() — called implicitly by SearchShardedCatalog() —
//     verifies the section checksums, parses the entry table, names,
//     segment table, and persisted tiered index, and validates every
//     offset. O(corpus metadata), no graph bytes touched. It is most
//     of a cold query's cost: at 100K entries (a 128 MB manifest) it
//     takes ~98 ms on a 4-vCPU Xeon VM, and two thirds of that (~65
//     ms) is the CRC of the 111 MB signature heap. The other sections'
//     CRCs take ~10 ms, the index parse ~16 ms, and the entry table
//     ~6 ms.
//   * signature(i) materializes one GraphSignature from the mapped
//     signature heap on first use (GraphSignature::FromParts); with the
//     tiered index pruning well, a query touches o(N) of them.
//   * graph(i) maps + CRC-checks its segment file on first touch, then
//     deserializes just that entry's DMG1 blob. Both steps are guarded
//     by std::once_flags, so concurrent searches over one store are
//     safe (exercised by tests/stress/sharded_search_stress_test.cc).
//
// Search results over a store are bit-identical to loading the same
// catalog monolithically and searching it: both run the shared
// SearchCatalogView core, and the signatures/graphs/index round-trip
// bit-exactly.

#ifndef DEPMATCH_CORE_SHARDED_STORE_H_
#define DEPMATCH_CORE_SHARDED_STORE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "depmatch/common/status.h"
#include "depmatch/core/catalog_index.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/graph_signature.h"

namespace depmatch {

struct ShardedStoreWriteOptions {
  // Entries per segment file. Smaller segments mean finer-grained lazy
  // loading (and more files); the tests use tiny values to force entries
  // across shard boundaries.
  size_t entries_per_segment = 512;
};

// Writes `catalog` (including its tiered index, when one is built) as a
// sharded store under directory `dir`, creating the directory if
// needed. Existing files of the same names are overwritten.
Status WriteShardedCatalog(const GraphCatalog& catalog, const std::string& dir,
                           const ShardedStoreWriteOptions& options = {});

class ShardedCatalogStore {
 public:
  // Maps <dir>/MANIFEST.dms and verifies the fixed-size header only
  // (see file comment). The store keeps the mapping for its lifetime.
  static Result<ShardedCatalogStore> Open(const std::string& dir);

  ShardedCatalogStore(ShardedCatalogStore&&) noexcept;
  ShardedCatalogStore& operator=(ShardedCatalogStore&&) noexcept;
  ~ShardedCatalogStore();

  // Available immediately after Open (header fields).
  size_t size() const;
  size_t num_segments() const;

  // Verifies and parses the metadata sections on first call; idempotent
  // and thread-safe (later calls return the cached status). All
  // accessors below require a prior OK EnsureMetadata().
  Status EnsureMetadata() const;

  const std::string& name(size_t entry) const;
  // Node count of the entry's graph, from the entry table — no graph
  // load.
  size_t width(size_t entry) const;
  // The entry's signature, materialized from the mapped signature heap
  // on first use. Thread-safe.
  const GraphSignature& signature(size_t entry) const;
  // The persisted tiered index, or nullptr if the store was written
  // without one.
  const CatalogTieredIndex* index() const;
  // The entry's graph, mapping + verifying its segment and
  // deserializing the blob on first touch. Thread-safe; the pointer
  // stays valid for the store's lifetime.
  Result<const DependencyGraph*> graph(size_t entry) const;

 private:
  struct Impl;
  explicit ShardedCatalogStore(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

// SearchCatalogView over a sharded store (EnsureMetadata is run first;
// its failure is returned as the search error). Uses the store's
// persisted tiered index under options.use_index, exactly like
// SearchCatalog uses an in-memory one.
Result<CatalogSearchResult> SearchShardedCatalog(
    const DependencyGraph& query, const ShardedCatalogStore& store,
    const CatalogSearchOptions& options);

}  // namespace depmatch

#endif  // DEPMATCH_CORE_SHARDED_STORE_H_
