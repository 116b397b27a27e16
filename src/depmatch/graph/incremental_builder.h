// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Incremental Table2DepGraph: a dependency-graph builder that retains
// the mergeable count state (stats/count_state.h) of everything it has
// ingested, so appending rows costs O(delta) counting plus a refold of
// only the DIRTY entropy/MI entries — never a full pass over the
// accumulated table.
//
// Bit-identity contract (asserted by incremental_builder_test.cc at
// 1/2/8 threads across dense/sparse kernel strategies, and end-to-end
// through catalog signatures and service snapshots by the stress
// suites): after any sequence of Append/Merge calls, Refresh() returns
// exactly — every double bit-equal — the graph BuildDependencyGraph
// would produce on the row-concatenation of everything ingested, with
// the same options. The chain of reasoning:
//   1. TableCountState reproduces the concatenated table's exact
//      integer counts, emitted in the kernels' canonical cell order
//      (count_state.h).
//   2. Marginal entropies and edge values are produced by the same
//      folds the cold builder uses: EntropyFromSlots over identical
//      slot counts and DependencyEdgeValue over identical JointCounts.
//   3. Clean entries are not recomputed at all — their cached doubles
//      ARE the values the cold build would derive, because their counts
//      did not change (DirtySet rules, count_state.h).
// Sparsification is a pure function of the full matrix, re-applied per
// Refresh, so it commutes with the identity above.
//
// Thread safety: none — single-writer, like the count state it owns.
// Refresh() internally fans dirty-entry refolds across
// options.graph.num_threads workers; each entry is written by exactly
// one worker, so results are thread-invariant. The builder is copyable:
// a copy is an independent fork of the ingestion history (used by the
// service's replace path and by bench_incremental's repeated trials).

#ifndef DEPMATCH_GRAPH_INCREMENTAL_BUILDER_H_
#define DEPMATCH_GRAPH_INCREMENTAL_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/stats/count_state.h"
#include "depmatch/table/table.h"

namespace depmatch {

// Sparsification applied to the refreshed graph (graph/sparsify.h).
// Applied to the FULL refreshed matrix every Refresh, so the published
// graph equals sparsify(cold rebuild) exactly.
enum class GraphSparsify {
  kNone,
  kChowLiuTree,  // maximum-weight spanning forest of the MI graph
  kTopK,         // keep the strongest top_k off-diagonal edges
  kDropWeak,     // zero edges below weak_threshold
};

struct IncrementalBuildOptions {
  // Measure, null policy, kernel knobs, and refold parallelism — the
  // exact options the equivalent cold BuildDependencyGraph would take.
  DependencyGraphOptions graph;
  GraphSparsify sparsify = GraphSparsify::kNone;
  size_t top_k = 0;             // kTopK only
  double weak_threshold = 0.0;  // kDropWeak only
  // Forwarded to CountStateOptions::dense_state_cell_budget.
  size_t dense_state_cell_budget = size_t{1} << 16;
};

class IncrementalGraphBuilder {
 public:
  IncrementalGraphBuilder() = default;

  // Cold build over `table`: one full counting pass, retained as count
  // state, plus the initial Refresh.
  static Result<IncrementalGraphBuilder> Create(
      const Table& table, const IncrementalBuildOptions& options = {});

  // O(delta)-cost ingestion (see count_state.h). The graph() is stale
  // until the next Refresh().
  Status Append(const Table& delta);
  Status Merge(const IncrementalGraphBuilder& other);

  // Recomputes the dirty marginals and edges, re-derives (and
  // re-sparsifies) the dependency graph, and clears the dirty set.
  // Returns the refreshed graph; graph() returns the same object.
  Result<DependencyGraph> Refresh();

  // Last refreshed graph (valid after Create; stale after Append/Merge
  // until Refresh).
  const DependencyGraph& graph() const { return graph_; }

  // Columns whose marginals the last Refresh recomputed — the exact
  // eviction set for digest-keyed caches layered above.
  const std::vector<size_t>& last_refreshed_columns() const {
    return last_refreshed_columns_;
  }

  const TableCountState& state() const { return state_; }
  const IncrementalBuildOptions& options() const { return options_; }
  uint64_t rows() const { return state_.rows(); }
  uint64_t generation() const { return state_.generation(); }
  uint64_t digest() const { return state_.digest(); }

 private:
  Result<DependencyGraph> Sparsify(DependencyGraph graph) const;

  IncrementalBuildOptions options_;
  TableCountState state_;
  // Caches carried across refreshes: clean entries keep their exact
  // previously-folded doubles (bit-identity point 3 above).
  std::vector<ColumnMarginal> marginals_;
  std::vector<std::vector<double>> matrix_;
  std::vector<std::string> names_;
  DependencyGraph graph_;
  std::vector<size_t> last_refreshed_columns_;
};

}  // namespace depmatch

#endif  // DEPMATCH_GRAPH_INCREMENTAL_BUILDER_H_
