// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ShardedCatalogStore: the on-disk form of a GraphCatalog — segmented,
// memory-mapped persistence sized for corpora of 10^5+ tables.
//
// A catalog is written once (WriteShardedCatalog) and then either
// searched in place, opening in O(1) and reading only what a query
// touches (ShardedCatalogStore, SearchShardedCatalog), or read back
// whole into a GraphCatalog (ReadShardedCatalog). The layout splits the
// catalog across a directory:
//
//   <dir>/MANIFEST.dms       fixed 128-byte header + five contiguous
//                            sections (entry table, name heap,
//                            signature heap, tiered index, segment
//                            table); the header's section descriptors
//                            carry a CRC-32 for each section but the
//                            signature heap, which is checked per entry
//   <dir>/segment-NNNNN.seg  concatenated DMG1 graph blobs for a
//                            contiguous slice of entries, with a
//                            whole-file CRC-32 in the segment table
//
// Format version 2. Each entry-table record is 60 bytes: name offset and
// length in the name heap, width, segment, offset and length of the
// graph blob in that segment, signature offset (u64 each), and the
// CRC-32 of the entry's 8·width² signature bytes (u32). The signatures
// tile the signature heap in entry order (each starts where the previous
// one ends, and the last ends at the heap's end), so the per-entry CRCs
// cover the heap byte for byte. Version 1, whose one CRC covered the
// whole signature heap, is rejected at Open.
//
// All integers are fixed-width little-endian and all doubles raw
// IEEE-754 bit patterns (graph/graph_io.h primitives), so a round trip
// through the store reproduces graphs, signatures, and the tiered index
// bit-identically. Sections are laid out back to back with no padding.
// Every manifest byte is covered by exactly one checksum: the header
// and four sections by their own CRCs, the signature heap by the
// per-entry signature CRCs. Every segment byte is covered twice: by the
// segment's whole-file CRC and by the DMG1 CRC of the blob it belongs to
// (ROADMAP item 7(f) plans to drop the segment CRC). Any single-byte
// corruption or truncation surfaces as InvalidArgument by the time every
// signature and graph has been read. The files must not change while a
// store is open: each entry-table record is validated once and then
// decoded from the mapping on every access.
//
// Lazy lifecycle — the point of the format:
//   * Open() memory-maps the manifest and verifies only the fixed-size
//     header (magic, version, counts, section descriptor CRC): O(1)
//     regardless of corpus size.
//   * EnsureMetadata() — called implicitly by SearchShardedCatalog() —
//     verifies the CRCs of the entry table, name heap, index and segment
//     table, parses the segment table and persisted tiered index, and
//     validates every entry record's offsets, including the signature
//     tiling, in one pass. It copies no entry record and reads no
//     signature and no graph bytes: name(i), width(i) and the offsets
//     behind signature(i) and graph(i) are decoded from the mapped entry
//     table when called, and name(i) is a view of the mapped name heap.
//   * signature(i) checks the entry's signature CRC and materializes one
//     GraphSignature from the mapped signature heap on first use
//     (GraphSignature::FromParts); with the tiered index pruning well, a
//     query touches o(N) of them.
//   * graph(i) maps + CRC-checks its segment file on first touch, then
//     deserializes just that entry's DMG1 blob. Each entry's signature
//     and graph, and each segment, are guarded by their own
//     std::once_flag, so concurrent searches over one store are safe
//     (exercised by tests/stress/sharded_search_stress_test.cc).
//
// What a cold query pays at 100K entries (a 121 MB manifest, 111 MB of
// it signatures; 4-vCPU Xeon VM, median of 21 cold calls): 19–28 ms of
// EnsureMetadata, depending on the host's state. Most of it is the CRCs
// of the entry table, name heap and index (~8.6 ms) and the index parse
// (~14.5 ms); the validation pass over the entry records copies
// nothing. The search then checksums only the ~120 signatures its
// descent evaluates (~130 KB), where a whole-heap CRC took ~56 ms.
//
// When corruption is reported: a flipped byte in the header, the entry
// table, the name heap, the index or the segment table fails Open or
// EnsureMetadata. A flipped byte in one entry's signature fails
// signature(i) for that entry only, and a search reports it (as that
// entry's failure) only if it evaluates the entry's bound; a query that
// never reads the signature succeeds. A flipped segment byte fails
// graph(i) for the entries of that segment. A walk over every
// signature(i) and graph(i) finds every flipped byte.
//
// Search results over a store are bit-identical to searching the
// catalog it was written from, or the one ReadShardedCatalog reads back:
// all run the shared SearchCatalogView core, and the signatures, graphs
// and index round-trip bit-exactly.

#ifndef DEPMATCH_CORE_SHARDED_STORE_H_
#define DEPMATCH_CORE_SHARDED_STORE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

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
  // and thread-safe (later calls return the cached status). name(),
  // width() and index() require a prior OK EnsureMetadata(); signature()
  // and graph() run it themselves.
  Status EnsureMetadata() const;

  // A view into the mapped name heap, valid for the store's lifetime.
  std::string_view name(size_t entry) const;
  // Node count of the entry's graph, from the entry table — no graph
  // load.
  size_t width(size_t entry) const;
  // The entry's signature, checked against its CRC and materialized from
  // the mapped signature heap on first use; a mismatch is an
  // InvalidArgument naming the entry, returned on every later call too.
  // Thread-safe; the pointer stays valid for the store's lifetime.
  Result<const GraphSignature*> signature(size_t entry) const;
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

// Reads the whole store at `dir` back into a GraphCatalog: Open,
// EnsureMetadata, then every entry in order — its signature (checking
// that entry's CRC), its graph, and Insert(name, graph). A flipped byte
// or a truncation anywhere in the store fails the read, and a missing
// manifest is NotFound. Insert recomputes each signature, so the catalog
// is bit-identical to the one that was written. The persisted tiered
// index is not installed; call BuildIndex on the result.
Result<GraphCatalog> ReadShardedCatalog(const std::string& dir);

// SearchCatalogView over a sharded store (EnsureMetadata is run first;
// its failure is returned as the search error). Uses the store's
// persisted tiered index under options.use_index, exactly like
// SearchCatalog uses an in-memory one.
Result<CatalogSearchResult> SearchShardedCatalog(
    const DependencyGraph& query, const ShardedCatalogStore& store,
    const CatalogSearchOptions& options);

}  // namespace depmatch

#endif  // DEPMATCH_CORE_SHARDED_STORE_H_
