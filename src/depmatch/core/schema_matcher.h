// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// SchemaMatcher: the paper's complete two-step algorithm behind one call.
//
//   1.  G1 = Table2DepGraph(S1);  G2 = Table2DepGraph(S2);
//   2.  {(G1(a), G2(b))} = GraphMatch(G1, G2);
//
// Step 1 is BuildDependencyGraph (pairwise mutual information), step 2 is
// MatchGraphs (metric-optimizing injective node mapping under a
// cardinality constraint). The facade adds name resolution so callers get
// attribute-name correspondences, not just node indices.
//
// Quick start:
//
//   depmatch::SchemaMatchOptions options;
//   options.match.cardinality = depmatch::Cardinality::kOneToOne;
//   auto result = depmatch::MatchTables(parts_a, parts_b, options);
//   if (result.ok()) {
//     for (const auto& c : result->correspondences) {
//       std::cout << c.source_name << " -> " << c.target_name << "\n";
//     }
//   }

#ifndef DEPMATCH_CORE_SCHEMA_MATCHER_H_
#define DEPMATCH_CORE_SCHEMA_MATCHER_H_

#include <string>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/match/matcher.h"
#include "depmatch/match/matching.h"
#include "depmatch/table/table.h"

namespace depmatch {

struct SchemaMatchOptions {
  // Step 1: dependency-graph construction (null policy, measure,
  // threading). Every pair is counted exactly.
  DependencyGraphOptions graph;
  // Step 2: metric, cardinality, search algorithm, candidate filter.
  MatchOptions match;
  // Optional memo for step 1's per-column statistics, honored by the
  // EncodedTableView overload of MatchTables (ignored by the Table one).
  // Borrowed, not owned: the caller keeps it alive across calls so
  // repeated matches over slices of the same base tables reuse entries.
  StatCache* stat_cache = nullptr;
};

// One attribute correspondence, with names resolved.
struct Correspondence {
  size_t source_index = 0;
  size_t target_index = 0;
  std::string source_name;
  std::string target_name;
};

struct SchemaMatchResult {
  std::vector<Correspondence> correspondences;
  // Raw node-level result (metric value, search statistics).
  MatchResult match;
  // The dependency graphs of both inputs, exposed so callers can inspect
  // entropies/MI or re-score alternative mappings without recomputation.
  DependencyGraph source_graph;
  DependencyGraph target_graph;
};

// Runs the full two-step un-interpreted structure matching of `source`
// into `target`. The tables need not share column names, value encodings,
// or data types: only their dependency structure is used.
Result<SchemaMatchResult> MatchTables(const Table& source,
                                      const Table& target,
                                      const SchemaMatchOptions& options = {});

// Same over zero-copy views of encoded table snapshots
// (table/encoded_column.h): step 1 consumes pre-encoded slot arrays, and
// with options.stat_cache set, per-column statistics are memoized across
// calls sharing base tables and row selections. Bit-identical to the
// Table overload on equivalent data (see graph/graph_builder.h for the
// exact contract).
Result<SchemaMatchResult> MatchTables(const EncodedTableView& source,
                                      const EncodedTableView& target,
                                      const SchemaMatchOptions& options = {});

}  // namespace depmatch

#endif  // DEPMATCH_CORE_SCHEMA_MATCHER_H_
