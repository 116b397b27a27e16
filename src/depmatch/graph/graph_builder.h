// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Table2DepGraph (step 1 of the paper's algorithm): computes pairwise
// mutual information over all attribute pairs of a table and assembles
// the dependency graph.
//
// The O(n^2) pairwise phase runs on the joint-count kernels of
// stats/joint_kernel.h: each pair is counted densely (flat matrix) when
// (distinct_x + 1) * (distinct_y + 1) fits options.stats.dense_cell_budget
// and sparsely (hash map) otherwise, each column's marginal histogram and
// entropy are computed once and shared across all pairs, and each worker
// thread reuses one kernel's scratch across its pairs. Both kernels emit
// counts in a canonical order, so the resulting graph is bit-identical
// across kernel choices and thread counts. docs/performance.md describes
// the selection rule and how to tune the budget.

#ifndef DEPMATCH_GRAPH_GRAPH_BUILDER_H_
#define DEPMATCH_GRAPH_GRAPH_BUILDER_H_

#include <cstddef>

#include "depmatch/common/status.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/stats/entropy.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/stats/stat_cache.h"
#include "depmatch/table/encoded_column.h"
#include "depmatch/table/table.h"

namespace depmatch {

// Which dependency statistic labels the graph's edges. The paper uses
// mutual information; the alternatives realize its "other dependency
// models" future-work direction. The diagonal (node label) is always the
// attribute entropy, so entropy-based candidate filtering and the
// entropy-only metrics behave identically across measures.
enum class DependencyMeasure {
  kMutualInformation,            // MI(X;Y) in bits (the paper's choice)
  kNormalizedMutualInformation,  // MI / max(H) in [0, 1]
  kCramersV,                     // chi-square association in [0, 1]
};

struct DependencyGraphOptions {
  // Null handling plus the dense-kernel cell budget (stats.dense_cell_budget;
  // 0 forces the sparse hash-map path for every pair).
  StatsOptions stats;
  // Worker threads for the O(n^2) MI computation; 1 = serial. The result
  // is identical for every thread count.
  size_t num_threads = 1;
  DependencyMeasure measure = DependencyMeasure::kMutualInformation;
};

// One pairwise edge value from a counting result plus the two column
// marginals (the per-pair retained marginals take over when the counting
// pass filled them; see JointCounts::has_marginals). This is THE edge
// fold: the cold build below and graph/incremental_builder.h call it,
// which is what makes an incremental refresh bit-identical to a cold
// rebuild — identical counts fed through identical folds.
double DependencyEdgeValue(DependencyMeasure measure, const JointCounts& joint,
                           const ColumnMarginal& mx, const ColumnMarginal& my);

// Builds the dependency graph of `table`: m[i][j] = MI(a_i; a_j), with the
// diagonal m[i][i] = H(a_i) (self-information). Deterministic for a given
// table and options. Encodes the table once (EncodedTableView::FromTable)
// and builds over that view, with no StatCache: a fresh snapshot id can
// never hit one.
Result<DependencyGraph> BuildDependencyGraph(
    const Table& table, const DependencyGraphOptions& options = {});

// Same over a zero-copy view of an encoded table snapshot, consuming
// pre-encoded slot arrays directly (no Value is copied or re-hashed).
// When `cache` is non-null, per-column selection stats (remapped slots,
// marginal, entropy) are fetched through it, so repeated builds over
// overlapping slices of the same base table encode each column once; the
// pairwise edge values are memoized too, so a column pair recurring
// across builds (same selection, policy, measure) skips the joint count
// entirely.
//
// Bit-identical contract: a view with no row selection yields exactly
// BuildDependencyGraph(table) on the snapshotted table; a view with a row
// selection yields exactly the graph of the SelectRows-materialized table
// (first-appearance remap, see table/encoded_column.h). Cached and cold
// builds are identical by construction.
Result<DependencyGraph> BuildDependencyGraph(
    const EncodedTableView& view, const DependencyGraphOptions& options = {},
    StatCache* cache = nullptr);

}  // namespace depmatch

#endif  // DEPMATCH_GRAPH_GRAPH_BUILDER_H_
