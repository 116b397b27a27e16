// Incremental Table2DepGraph: after any Append/Merge sequence, Refresh
// must return a graph bit-identical (every double, via bit_cast) to a
// cold BuildDependencyGraph over the concatenated table — at 1/2/8
// threads, across dense/sparse kernel strategies, for every measure,
// both null policies, and through sparsification.

#include "depmatch/graph/incremental_builder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "depmatch/datagen/datasets.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/graph/sparsify.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace {

Table MakeTable(uint64_t seed, size_t rows, bool with_nulls) {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kInt64},
      {"d", DataType::kString},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t h = seed * 1000003 + r * 2654435761u;
    builder.AppendValue(0, Value(static_cast<int64_t>(h % 23)));
    builder.AppendValue(1, Value(static_cast<int64_t>((h % 23) / 3)));
    if (with_nulls && h % 6 == 2) {
      builder.AppendValue(2, Value::Null());
    } else {
      builder.AppendValue(2, Value(static_cast<int64_t>((h / 7) % 9)));
    }
    builder.AppendValue(3, Value("s" + std::to_string(h % 31)));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

void ExpectBitIdenticalGraphs(const DependencyGraph& got,
                              const DependencyGraph& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.names(), want.names());
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.mi(i, j)),
                std::bit_cast<uint64_t>(want.mi(i, j)))
          << "entry " << i << "," << j;
    }
  }
}

struct IncrementalCase {
  NullPolicy policy;
  bool with_nulls;
  size_t num_threads;
  size_t dense_budget;  // 0 forces sparse kernels AND sparse state
  DependencyMeasure measure;
};

class IncrementalEquivalence
    : public ::testing::TestWithParam<IncrementalCase> {};

IncrementalBuildOptions CaseOptions(const IncrementalCase& c) {
  IncrementalBuildOptions options;
  options.graph.stats.null_policy = c.policy;
  options.graph.stats.dense_cell_budget = c.dense_budget;
  if (c.dense_budget == 0) options.graph.stats.auto_dense_budget = false;
  options.graph.num_threads = c.num_threads;
  options.graph.measure = c.measure;
  options.dense_state_cell_budget = c.dense_budget;
  return options;
}

TEST_P(IncrementalEquivalence, AppendsMatchColdRebuild) {
  const IncrementalCase& c = GetParam();
  Table base = MakeTable(1, 150, c.with_nulls);
  std::vector<Table> deltas = {MakeTable(2, 50, c.with_nulls),
                               MakeTable(3, 1, c.with_nulls),
                               MakeTable(4, 90, c.with_nulls)};
  IncrementalBuildOptions options = CaseOptions(c);

  Result<IncrementalGraphBuilder> builder =
      IncrementalGraphBuilder::Create(base, options);
  ASSERT_TRUE(builder.ok()) << builder.status();

  // The initial graph IS the cold build of the base.
  Result<DependencyGraph> cold_base = BuildDependencyGraph(base, options.graph);
  ASSERT_TRUE(cold_base.ok());
  ExpectBitIdenticalGraphs(builder->graph(), *cold_base);

  // Refresh after every append; each must match the cold rebuild of the
  // concatenation so far.
  std::vector<Table> ingested;
  for (const Table& delta : deltas) {
    ASSERT_TRUE(builder->Append(delta).ok());
    ingested.push_back(delta);
    Result<DependencyGraph> refreshed = builder->Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status();

    Result<Table> concatenated = datagen::ConcatenateSlices(base, ingested);
    ASSERT_TRUE(concatenated.ok());
    Result<DependencyGraph> cold =
        BuildDependencyGraph(*concatenated, options.graph);
    ASSERT_TRUE(cold.ok());
    ExpectBitIdenticalGraphs(*refreshed, *cold);
  }
}

TEST_P(IncrementalEquivalence, MergeMatchesColdRebuild) {
  const IncrementalCase& c = GetParam();
  Table left = MakeTable(5, 120, c.with_nulls);
  Table right = MakeTable(6, 80, c.with_nulls);
  IncrementalBuildOptions options = CaseOptions(c);

  Result<IncrementalGraphBuilder> a =
      IncrementalGraphBuilder::Create(left, options);
  Result<IncrementalGraphBuilder> b =
      IncrementalGraphBuilder::Create(right, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Merge(*b).ok());
  Result<DependencyGraph> refreshed = a->Refresh();
  ASSERT_TRUE(refreshed.ok());

  Result<Table> concatenated = datagen::ConcatenateSlices(left, {right});
  ASSERT_TRUE(concatenated.ok());
  Result<DependencyGraph> cold =
      BuildDependencyGraph(*concatenated, options.graph);
  ASSERT_TRUE(cold.ok());
  ExpectBitIdenticalGraphs(*refreshed, *cold);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IncrementalEquivalence,
    ::testing::Values(
        // Thread sweep, dense kernels, symbol policy.
        IncrementalCase{NullPolicy::kNullAsSymbol, true, 1, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        IncrementalCase{NullPolicy::kNullAsSymbol, true, 2, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        IncrementalCase{NullPolicy::kNullAsSymbol, true, 8, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        // Forced-sparse strategies, both policies, 8 threads.
        IncrementalCase{NullPolicy::kNullAsSymbol, true, 8, 0,
                        DependencyMeasure::kMutualInformation},
        IncrementalCase{NullPolicy::kDropNulls, true, 8, 0,
                        DependencyMeasure::kMutualInformation},
        // Drop policy with dense kernels, thread sweep.
        IncrementalCase{NullPolicy::kDropNulls, true, 1, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        IncrementalCase{NullPolicy::kDropNulls, true, 8, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        // No nulls at all (has_marginals never engages under drop).
        IncrementalCase{NullPolicy::kDropNulls, false, 2, size_t{1} << 16,
                        DependencyMeasure::kMutualInformation},
        // Other measures exercise the remaining DependencyEdgeValue arms.
        IncrementalCase{NullPolicy::kNullAsSymbol, true, 2, size_t{1} << 16,
                        DependencyMeasure::kNormalizedMutualInformation},
        IncrementalCase{NullPolicy::kDropNulls, true, 2, size_t{1} << 16,
                        DependencyMeasure::kCramersV}));

TEST(IncrementalBuilderTest, SparsifiedRefreshMatchesSparsifiedColdRebuild) {
  Table base = MakeTable(1, 150, false);
  Table delta = MakeTable(2, 60, false);
  for (GraphSparsify mode : {GraphSparsify::kChowLiuTree, GraphSparsify::kTopK,
                             GraphSparsify::kDropWeak}) {
    IncrementalBuildOptions options;
    options.sparsify = mode;
    options.top_k = 3;
    options.weak_threshold = 0.05;
    Result<IncrementalGraphBuilder> builder =
        IncrementalGraphBuilder::Create(base, options);
    ASSERT_TRUE(builder.ok());
    ASSERT_TRUE(builder->Append(delta).ok());
    Result<DependencyGraph> refreshed = builder->Refresh();
    ASSERT_TRUE(refreshed.ok());

    Result<Table> concatenated = datagen::ConcatenateSlices(base, {delta});
    ASSERT_TRUE(concatenated.ok());
    Result<DependencyGraph> cold =
        BuildDependencyGraph(*concatenated, options.graph);
    ASSERT_TRUE(cold.ok());
    Result<DependencyGraph> sparsified =
        mode == GraphSparsify::kChowLiuTree ? ChowLiuTree(*cold)
        : mode == GraphSparsify::kTopK      ? KeepTopEdges(*cold, 3)
                                            : DropWeakEdges(*cold, 0.05);
    ASSERT_TRUE(sparsified.ok());
    ExpectBitIdenticalGraphs(*refreshed, *sparsified);
  }
}

TEST(IncrementalBuilderTest, LastRefreshedColumnsTracksDirtySet) {
  // Symbol policy: every append dirties everything.
  Result<IncrementalGraphBuilder> builder =
      IncrementalGraphBuilder::Create(MakeTable(1, 50, false), {});
  ASSERT_TRUE(builder.ok());
  EXPECT_EQ(builder->last_refreshed_columns().size(), 4u);
  ASSERT_TRUE(builder->Append(MakeTable(2, 10, false)).ok());
  ASSERT_TRUE(builder->Refresh().ok());
  EXPECT_EQ(builder->last_refreshed_columns().size(), 4u);

  // A refresh with nothing dirty refreshes nothing.
  ASSERT_TRUE(builder->Refresh().ok());
  EXPECT_TRUE(builder->last_refreshed_columns().empty());
}

TEST(IncrementalBuilderTest, CopiesForkIndependently) {
  Result<IncrementalGraphBuilder> builder =
      IncrementalGraphBuilder::Create(MakeTable(1, 60, false), {});
  ASSERT_TRUE(builder.ok());
  IncrementalGraphBuilder fork = *builder;
  ASSERT_TRUE(fork.Append(MakeTable(2, 30, false)).ok());
  ASSERT_TRUE(fork.Refresh().ok());
  EXPECT_EQ(builder->rows(), 60u);
  EXPECT_EQ(fork.rows(), 90u);
  EXPECT_NE(builder->digest(), fork.digest());
}

}  // namespace
}  // namespace depmatch
