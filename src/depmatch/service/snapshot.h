// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ServiceSnapshot: the immutable unit of catalog publication.
//
// The serving loop (service/match_service.h) never mutates a catalog in
// place. The daemon holds a shared_ptr<const ServiceSnapshot>; every
// request grabs that pointer once at execution start and works against
// it for its whole lifetime, so readers never block on writers and a
// response can name exactly the catalog state it was computed on
// (SearchResponse::snapshot_version). An insert builds a *new* snapshot
// — copy, apply, re-index, all outside any lock — and swaps the
// published pointer; in-flight requests keep the old snapshot alive
// through their shared_ptr until they finish. Successive snapshots
// share every catalog entry they have in common (core/graph_catalog.h),
// so a copy costs one pointer per entry and releasing a snapshot frees
// only the entries no newer snapshot holds.

#ifndef DEPMATCH_SERVICE_SNAPSHOT_H_
#define DEPMATCH_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "depmatch/core/catalog_index.h"
#include "depmatch/core/graph_catalog.h"

namespace depmatch {
namespace service {

// One published catalog state. Immutable after construction: every
// member is set before the snapshot is shared and never written again,
// so concurrent readers need no synchronization beyond the shared_ptr.
struct ServiceSnapshot {
  // Monotonically increasing publication counter (1 = the snapshot the
  // service started with).
  uint64_t version = 0;
  // The catalog, with its tiered index built when index_built is set.
  GraphCatalog catalog;
  bool index_built = false;
};

// Wraps `catalog` into an immutable snapshot, building the tiered index
// first when `build_index` is set (small catalogs search fine without
// one; the flat path is bit-identical either way).
std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    uint64_t version, GraphCatalog catalog, bool build_index,
    const CatalogIndexOptions& index_options = {});

// Wraps an already-prepared catalog into a snapshot as-is, WITHOUT
// rebuilding the tiered index: index_built reflects whatever index the
// catalog carries. This is the incremental-append publication path — the
// dispatcher copies the current catalog (sharing its entries and index),
// replaces one entry (GraphCatalog::UpdateEntry keeps the index live by
// widening the envelope path of its own index copy), and publishes
// without the O(N log N) re-index a full MakeServiceSnapshot would pay.
std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshotPreservingIndex(
    uint64_t version, GraphCatalog catalog);

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_SNAPSHOT_H_
