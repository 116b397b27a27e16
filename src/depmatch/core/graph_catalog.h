// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// GraphCatalog: N-way matching against a corpus of dependency graphs.
//
// The paper closes by noting that a complete integration system must
// match more than two tables at once; the production shape of that
// problem is one query table against a large catalog, where cheap
// per-attribute signals prune most candidates before any expensive
// structural match runs. This module provides:
//
//   * a catalog container holding named DependencyGraphs with compact
//     per-entry node signatures (entropy vector + sorted off-diagonal
//     MI profiles, match/graph_signature.h) precomputed at insert time;
//   * persistence as a checksummed sharded store (core/sharded_store.h:
//     WriteShardedCatalog, ReadShardedCatalog), so catalogs load from
//     disk instead of re-running Table2DepGraph;
//   * an admissible prefilter: CatalogEntryBound() upper-bounds the
//     best achievable ranking key of matching the query against an
//     entry, from signatures alone — entries whose bound falls below
//     the running top-k threshold are skipped without ever running a
//     search backend;
//   * a tiered index (core/catalog_index.h): BuildIndex() clusters the
//     entries into a balanced signature-space tree whose per-node
//     envelope bound dominates every member's entry bound, so the
//     search prunes whole subtrees with one evaluation and the number
//     of bound evaluations per query grows sublinearly in the corpus;
//   * SearchCatalog(): one best-first loop over the index (or over every
//     compatible entry keyed by its bound, without one), shared by up to
//     num_threads workers that pop the frontier under one lock and run
//     the entries' GraphMatch calls in parallel against a shared top-k
//     threshold — returning a deterministic top-k ranking that is
//     bit-identical at any thread count, with or without the index.
//
// The 100K-entry, open-without-loading-graphs shape of the same catalog
// lives in core/sharded_store.h; both front ends share this module's
// search core through the CatalogEntryView interface below.
//
// Ranking key: a single higher-is-better number comparable across
// entries of one search. For the maximized (normal) metrics it is the
// raw accumulated metric sum; for the minimized (Euclidean) metrics it
// is the negated finalized distance. CatalogMatch::normalized_score is
// the key divided by the query's term count (n^2 for structural
// metrics, n for entropy-only ones), so thresholds read the same
// regardless of schema width.
//
// Determinism under pruning: an entry (or a whole subtree) is skipped
// only when its admissible bound is strictly below the running
// threshold, and the threshold is always the k-th best key of fully
// evaluated entries — so every skipped entry's achievable key is
// strictly below the final k-th best and the top-k set (ties broken by
// entry index) is identical to the brute-force all-pairs ranking at
// every thread count. Only the CatalogSearchStats counters depend on
// scheduling.

#ifndef DEPMATCH_CORE_GRAPH_CATALOG_H_
#define DEPMATCH_CORE_GRAPH_CATALOG_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/core/catalog_index.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/graph_signature.h"
#include "depmatch/match/matcher.h"
#include "depmatch/match/matching.h"
#include "depmatch/match/metric.h"

namespace depmatch {

// A GraphCatalog is a value whose copies share immutable state. Each
// entry (name, graph, signature) is stored once and held by every copy
// that contains it; the name-to-slot map and the tiered index are held
// the same way. Copying a catalog therefore costs one pointer per entry,
// and dropping a copy frees only what no other copy still holds. A
// mutation never reaches another copy: UpdateEntry installs a new entry,
// and a copy that writes the shared map or index clones it first (see
// CopyOnWrite below). Copies may be read and dropped on any thread; as
// for any value type, one catalog object must not be written while it
// is read or copied.
class GraphCatalog {
 public:
  GraphCatalog() = default;

  // Adds a named graph; the node signature is computed here, once.
  // Fails with AlreadyExists on a duplicate name. Invalidates a
  // previously built tiered index. Clones the name map only when a copy
  // of this catalog shares it, so a loop of inserts into one catalog
  // stays linear in its size.
  Status Insert(std::string name, DependencyGraph graph);

  // Replaces an existing entry's graph (the incremental-append path,
  // graph/incremental_builder.h): a new entry with a recomputed
  // signature takes the slot, and a built tiered index is kept live by
  // widening the entry's root-to-leaf envelope path
  // (CatalogTieredIndex::UpdateEntry) on this catalog's own copy of the
  // index instead of being invalidated — searches through the updated
  // catalog stay bit-identical to a flat scan over the updated entries.
  // Copies made before the call keep the old entry and index. Fails
  // with NotFound when no entry has `name`.
  Status UpdateEntry(std::string_view name, DependencyGraph graph,
                     const CatalogIndexOptions& index_options = {});

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::string& name(size_t i) const { return entries_[i]->name; }
  const DependencyGraph& graph(size_t i) const { return entries_[i]->graph; }
  const GraphSignature& signature(size_t i) const {
    return entries_[i]->signature;
  }

  // Entry index for `name`, or NotFound.
  Result<size_t> Find(std::string_view name) const;

  // (Re)builds the tiered index over the current entries and installs
  // it in place of any index this catalog shared with its copies.
  // O(N log N) and deterministic; SearchCatalog uses it automatically
  // when present (CatalogSearchOptions::use_index).
  void BuildIndex(const CatalogIndexOptions& options = {});
  // The built index, or nullptr if absent / invalidated by Insert.
  const CatalogTieredIndex* index() const { return index_.get(); }

 private:
  struct Entry {
    std::string name;
    DependencyGraph graph;
    GraphSignature signature;
  };

  // A heap value that catalog copies share until one of them writes it.
  // Copying marks the value shared for good, in the source as well, and
  // Mutable() clones a shared value before returning it, so a write
  // never reaches another copy. The mark is sticky rather than read off
  // shared_ptr::use_count(): a use count of 1 does not order a release
  // of the last co-owner on another thread before this thread's write.
  // The mark is atomic because copies of one const catalog may be made
  // concurrently.
  template <typename T>
  class CopyOnWrite {
   public:
    CopyOnWrite() = default;
    CopyOnWrite(const CopyOnWrite& other) : node_(other.Share()) {}
    CopyOnWrite& operator=(const CopyOnWrite& other) {
      node_ = other.Share();
      return *this;
    }
    CopyOnWrite(CopyOnWrite&&) noexcept = default;
    CopyOnWrite& operator=(CopyOnWrite&&) noexcept = default;

    const T* get() const { return node_ ? &node_->value : nullptr; }
    // The value for writing: default-constructed when absent, cloned
    // first when a copy shares it.
    T& Mutable() {
      if (node_ == nullptr) {
        node_ = std::make_shared<Node>(T{});
      } else if (node_->shared.load(std::memory_order_relaxed)) {
        node_ = std::make_shared<Node>(node_->value);
      }
      return node_->value;
    }
    void Reset() { node_.reset(); }
    void Reset(T value) { node_ = std::make_shared<Node>(std::move(value)); }

   private:
    struct Node {
      explicit Node(T v) : value(std::move(v)) {}
      T value;
      std::atomic<bool> shared{false};
    };
    std::shared_ptr<Node> Share() const {
      if (node_ != nullptr) {
        node_->shared.store(true, std::memory_order_relaxed);
      }
      return node_;
    }
    std::shared_ptr<Node> node_;
  };

  std::vector<std::shared_ptr<const Entry>> entries_;
  CopyOnWrite<std::unordered_map<std::string, size_t>> slot_by_name_;
  CopyOnWrite<CatalogTieredIndex> index_;
};

struct CatalogSearchOptions {
  // Ranking size; must be >= 1.
  size_t k = 10;
  // Per-entry GraphMatch configuration (metric, cardinality, search
  // algorithm, filter width, and the *inner* match thread count — keep
  // match.num_threads at 1 when fanning entries out with num_threads
  // below, or the two levels multiply).
  MatchOptions match;
  // Signature-based admissible prefilter. Disabling it forces a full
  // GraphMatch per compatible entry (the brute-force baseline); results
  // are identical either way.
  bool use_prefilter = true;
  // Descend the catalog's tiered index when one has been built
  // (GraphCatalog::BuildIndex). Requires use_prefilter; results are
  // identical with or without it — the index only changes how many
  // bound evaluations the search performs.
  bool use_index = true;
  // Workers sharing the best-first frontier (1 = serial on the calling
  // thread; never more than the compatible entries). Until k entries
  // have completed a search starts no more than k, the number a serial
  // search must match before it can prune anything. The returned
  // ranking is bit-identical at any value.
  size_t num_threads = 1;
};

struct CatalogMatch {
  size_t entry = 0;  // catalog index
  std::string name;
  // Higher-is-better ranking key (see file comment) and its per-term
  // normalization.
  double ranking_key = 0.0;
  double normalized_score = 0.0;
  // Full GraphMatch output for the entry (pairs, metric value, search
  // statistics).
  MatchResult match;
};

struct CatalogSearchStats {
  size_t entries_total = 0;
  // Width-incompatible with the requested cardinality (skipped upfront).
  size_t entries_incompatible = 0;
  // Compatible entries not searched: their admissible bound (or their
  // subtree's) fell below the running threshold. NOTE: scheduling-
  // dependent — do not assert on this across thread counts.
  size_t entries_pruned = 0;
  // Entries that ran a full GraphMatch.
  size_t entries_searched = 0;
  // Per-entry CatalogEntryBound evaluations. With the tiered index this
  // grows sublinearly in the corpus size; without it, it is the number
  // of compatible entries.
  size_t bound_evaluations = 0;
  // Tiered-index envelope bound evaluations (0 on the flat path).
  size_t cluster_bound_evaluations = 0;

  // The six counters on one line, for logs and test messages.
  [[nodiscard]] std::string ToString() const;
};

struct CatalogSearchResult {
  // Top-k matches, best first (ties by entry index). Deterministic.
  std::vector<CatalogMatch> ranked;
  CatalogSearchStats stats;
};

// Admissible bound on the ranking key of matching a query with
// signature `query` against an entry with signature `entry` under
// `metric` / `cardinality`: no mapping admitted by the cardinality can
// achieve a key above the returned value. Exposed for the admissibility
// tests and the bench's prune-rate report.
double CatalogEntryBound(const GraphSignature& query,
                         const GraphSignature& entry, const Metric& metric,
                         Cardinality cardinality);

// Read-only random access to a corpus of catalog entries: the search
// core below is written against this interface so the in-memory
// GraphCatalog and the mmap-backed sharded store (core/sharded_store.h)
// share one pruning/threshold/worker implementation.
//
// width() and signature() are called from the calling thread or from
// the search's workers, never concurrently within one search: its lock
// serializes them.
// name() and graph() are called concurrently from the workers — name()
// must be a plain const read and graph() must synchronize any lazy
// materialization internally (the sharded store uses a per-entry
// once-flag). Separate searches over one view make all of these calls
// concurrently with each other, so signature() must synchronize its own
// lazy materialization too.
//
// signature() and graph() may fail: the sharded store checks each
// signature's and each segment's checksum on first use. See
// SearchCatalogView for how a search reports it.
class CatalogEntryView {
 public:
  virtual ~CatalogEntryView() = default;
  virtual size_t count() const = 0;
  virtual size_t width(size_t entry) const = 0;
  // Valid for the lifetime of the view.
  virtual std::string_view name(size_t entry) const = 0;
  // The entry's signature, materializing it if needed. The pointer must
  // stay valid for the lifetime of the view.
  virtual Result<const GraphSignature*> signature(size_t entry) const = 0;
  // The entry's dependency graph, materializing it if needed. The
  // pointer must stay valid for the lifetime of the view.
  virtual Result<const DependencyGraph*> graph(size_t entry) const = 0;
};

// Ranks the view's entries by their best GraphMatch against `query`,
// descending `index` when non-null (see CatalogSearchOptions). Entries
// incompatible with options.match.cardinality (one-to-one with a
// different width, onto with a narrower entry) are skipped. Any
// search-backend or materialization error aborts the whole call with
// that entry's status, prefixed "searching catalog entry N ('name'): ".
// A failed graph() counts at the position its entry was taken, a failed
// signature() at the position the next entry would be taken when the
// search evaluates that entry's bound; the failure at the earliest
// position wins, so the entry reported is the one a 1-thread search
// reports whenever every search of the query reaches it. An entry the
// search never reads (incompatible, or pruned with its subtree) cannot
// fail it.
Result<CatalogSearchResult> SearchCatalogView(const DependencyGraph& query,
                                              const CatalogEntryView& view,
                                              const CatalogTieredIndex* index,
                                              const CatalogSearchOptions& options);

// SearchCatalogView over a GraphCatalog, using its tiered index when
// built and options.use_index allows.
Result<CatalogSearchResult> SearchCatalog(const DependencyGraph& query,
                                          const GraphCatalog& catalog,
                                          const CatalogSearchOptions& options);

}  // namespace depmatch

#endif  // DEPMATCH_CORE_GRAPH_CATALOG_H_
