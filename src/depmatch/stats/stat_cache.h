// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Memoizing per-column statistics cache for the experiment pipeline.
//
// A Figure-9 style sweep rebuilds dependency graphs over many overlapping
// slices of the same base tables: per trial, a random attribute projection
// of a shared row sample. The per-column work — gathering and remapping
// the selection's slot array, the marginal histogram, the entropy — is
// identical whenever (base table, column, row selection, null policy)
// repeat, which across a sweep is almost always. StatCache memoizes it, so
// each base column is encoded exactly once per distinct row selection
// across all iterations and threads.
//
// Key design: (base-table id, base column index, row-selection digest,
// selection length, null policy). The table id is the process-unique
// EncodedTable snapshot id — snapshots are immutable, so entries never
// need invalidation; dropping the EncodedTable and building a new one
// yields a fresh id (stale entries are purged with Clear(), or simply by
// letting the cache go out of scope with the sweep). For incremental
// ingestion (graph/incremental_builder.h), where one logical table gains
// rows over time, callers tag views with the count-state generation
// digest (EncodedTableView::WithGeneration); the tag is part of every key,
// so a view over appended data can never hit an entry cached before the
// append — stale hits are structurally impossible, and EvictColumns()
// reclaims the superseded entries eagerly. The row digest is
// content-based (RowSelectionDigest), so independently constructed but
// equal selections share entries; the length rides along to keep the
// 64-bit digest honest against accidental collisions between selections
// of different sizes.
//
// Thread safety: Get() is safe to call concurrently. Lookups and inserts
// take a mutex; computation runs outside the lock. Two threads missing on
// the same key may both compute, but the first insert wins and the
// computation is deterministic, so both return equivalent data — the
// tsan_stress suite hammers exactly this.
//
// A second memo caches pairwise *edge values*: the exact double the graph
// builder's fold produced for a (column x, column y) pair under one
// (row selection, null policy, measure). Attribute subsets drawn across a
// sweep overlap heavily, so most pairs recur; an edge hit skips the joint
// count entirely. Edge keys are directional — the joint fold accumulates
// in row-major (x, y) order, and (y, x) sums the same terms in a
// different order, which IEEE addition does not guarantee to be the same
// double — so bit-identity with the cold path is preserved by keying the
// orientation actually built.

#ifndef DEPMATCH_STATS_STAT_CACHE_H_
#define DEPMATCH_STATS_STAT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "depmatch/common/thread_annotations.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {

// Everything the graph builder needs about one column restricted to one
// row selection: the slot array (aliased from the base encoding when the
// selection is "all rows", owned otherwise) plus its marginal histogram
// and entropy. Immutable once built; shared via shared_ptr.
struct ColumnSelectionStats {
  // Keeps an aliased slot array alive.
  std::shared_ptr<const EncodedTable> base;
  // Owned storage for the remapped selection slots; empty when aliasing.
  std::vector<uint32_t> owned_slots;
  // The slot array to consume (points into `base` or at `owned_slots`).
  const std::vector<uint32_t>* slots = nullptr;
  // Measured on the selection: distinct + 1 (slot 0 = null).
  uint32_t num_slots = 1;
  uint64_t null_count = 0;
  // Marginal over the selection under the keyed null policy.
  ColumnMarginal marginal;

  // Borrowed view for the joint-count kernels.
  CodeView code_view() const {
    return CodeView{slots->data(), slots->size(), num_slots, null_count};
  }
};

// Computes ColumnSelectionStats for view column `column` (view-relative)
// under `policy`, with no caching. A view without a row selection aliases
// the base slot array; a view with one materializes first-appearance
// remapped slots (see table/encoded_column.h), so downstream results are
// bit-identical to building from the materialized table.
std::shared_ptr<const ColumnSelectionStats> ComputeSelectionStats(
    const EncodedTableView& view, size_t column, NullPolicy policy);

// Thread-safe memo over ComputeSelectionStats. One instance typically
// spans one experiment sweep; entries live until Clear() or destruction.
class StatCache {
 public:
  StatCache() = default;
  StatCache(const StatCache&) = delete;
  StatCache& operator=(const StatCache&) = delete;

  // Returns the cached stats for (view base, view column `column`,
  // view row selection, policy), computing and inserting on miss.
  std::shared_ptr<const ColumnSelectionStats> Get(const EncodedTableView& view,
                                                  size_t column,
                                                  NullPolicy policy)
      DEPMATCH_EXCLUDES(mu_);

  // Edge memo: the exact double a graph-builder fold produced for view
  // columns (x, y) under `fold_tag` (the caller's encoding of the edge
  // measure). The tag deliberately excludes the kernel knobs: dense,
  // sparse, and every dispatch strategy emit bit-identical folds. GetEdge
  // returns true and writes `*value` on a hit; PutEdge stores a freshly
  // computed value (first insert wins). Keys live in base-column space
  // and are directional (see file comment), so a hit is bit-identical to
  // recomputing by construction.
  bool GetEdge(const EncodedTableView& view, size_t x, size_t y,
               NullPolicy policy, uint32_t fold_tag, double* value)
      DEPMATCH_EXCLUDES(mu_);
  void PutEdge(const EncodedTableView& view, size_t x, size_t y,
               NullPolicy policy, uint32_t fold_tag, double value)
      DEPMATCH_EXCLUDES(mu_);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
    uint64_t edge_hits = 0;
    uint64_t edge_misses = 0;
    size_t edge_entries = 0;
  };
  Counters counters() const DEPMATCH_EXCLUDES(mu_);

  // Drops all entries (counters included). Outstanding shared_ptrs stay
  // valid — entries are immutable and reference-counted.
  void Clear() DEPMATCH_EXCLUDES(mu_);

  // Digest-chained invalidation for incremental ingestion: drops every
  // column entry of `table_id` whose base-column index is in `columns`,
  // plus every edge entry of `table_id` touching one of them. An append's
  // dirty set (stats/count_state.h) names exactly the stale columns; the
  // generation key already makes stale *hits* impossible, so this is
  // memory hygiene, not correctness. Returns the number of entries
  // dropped. Counters are untouched.
  size_t EvictColumns(uint64_t table_id, const std::vector<size_t>& columns)
      DEPMATCH_EXCLUDES(mu_);

 private:
  struct Key {
    uint64_t table_id = 0;
    uint64_t row_digest = 0;
    uint64_t row_count = 0;
    uint64_t generation = 0;
    uint32_t column = 0;
    uint8_t policy = 0;

    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct EdgeKey {
    uint64_t table_id = 0;
    uint64_t row_digest = 0;
    uint64_t row_count = 0;
    uint64_t generation = 0;
    uint32_t x = 0;  // base-column index of the fold's row axis
    uint32_t y = 0;  // base-column index of the fold's column axis
    uint32_t fold_tag = 0;
    uint8_t policy = 0;

    bool operator==(const EdgeKey& other) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& key) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const ColumnSelectionStats>,
                     KeyHash>
      map_ DEPMATCH_GUARDED_BY(mu_);
  std::unordered_map<EdgeKey, double, EdgeKeyHash> edge_map_
      DEPMATCH_GUARDED_BY(mu_);
  uint64_t hits_ DEPMATCH_GUARDED_BY(mu_) = 0;
  uint64_t misses_ DEPMATCH_GUARDED_BY(mu_) = 0;
  uint64_t edge_hits_ DEPMATCH_GUARDED_BY(mu_) = 0;
  uint64_t edge_misses_ DEPMATCH_GUARDED_BY(mu_) = 0;
};

}  // namespace depmatch

#endif  // DEPMATCH_STATS_STAT_CACHE_H_
