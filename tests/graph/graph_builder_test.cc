#include "depmatch/graph/graph_builder.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "depmatch/common/rng.h"
#include "depmatch/datagen/bayes_net.h"
#include "depmatch/stats/association.h"
#include "depmatch/stats/entropy.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table_ops.h"

namespace depmatch {
namespace {

Table FigureThreeTable() {
  // The paper's Figure 3(a): four attributes with visible dependencies
  // (C is a function of A; D is loosely related).
  auto table = ReadCsvString(
      "A,B,C,D\n"
      "a1,b2,c1,d1\n"
      "a3,b4,c2,d2\n"
      "a1,b1,c1,d2\n"
      "a4,b3,c2,d3\n",
      {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

TEST(GraphBuilderTest, DiagonalIsEntropy) {
  Table table = FigureThreeTable();
  auto graph = BuildDependencyGraph(table);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(graph->entropy(i), EntropyOf(table.column(i)));
  }
}

// Seeded 400x8 CSV table with ~8% empty cells (nulls), small alphabets
// on seven columns and 300 values on the last.
Table NullyMixedAlphabetTable() {
  Rng rng(1203);
  std::string csv = "c0,c1,c2,c3,c4,c5,c6,c7\n";
  for (size_t r = 0; r < 400; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      if (c > 0) csv += ',';
      if (rng.NextBernoulli(0.08)) continue;
      uint64_t alphabet = c == 7 ? 300 : 2 + 3 * c;
      csv += "v" + std::to_string(rng.NextBounded(alphabet));
    }
    csv += '\n';
  }
  auto table = ReadCsvString(csv, {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

// The column-level statistics count with the builder's kernel and fold
// like DependencyEdgeValue, so they equal the graph bit for bit. Only
// i < j is compared: the builder folds the (i, j) orientation, and
// MI(y, x) sums the cells in another order.
void ExpectStatisticsEqualGraph(const Table& table) {
  const size_t n = table.num_attributes();
  for (NullPolicy policy :
       {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
    for (size_t budget : {kDefaultDenseCellBudget, size_t{0}}) {
      for (DependencyMeasure measure :
           {DependencyMeasure::kMutualInformation,
            DependencyMeasure::kNormalizedMutualInformation,
            DependencyMeasure::kCramersV}) {
        DependencyGraphOptions options;
        options.stats.null_policy = policy;
        options.stats.dense_cell_budget = budget;
        options.measure = measure;
        auto graph = BuildDependencyGraph(table, options);
        ASSERT_TRUE(graph.ok());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(graph->entropy(i),
                    EntropyOf(table.column(i), options.stats));
          for (size_t j = i + 1; j < n; ++j) {
            const Column& x = table.column(i);
            const Column& y = table.column(j);
            double direct =
                measure == DependencyMeasure::kMutualInformation
                    ? MutualInformation(x, y, options.stats)
                : measure == DependencyMeasure::kNormalizedMutualInformation
                    ? NormalizedMutualInformation(x, y, options.stats)
                    : CramersV(x, y, options.stats);
            EXPECT_EQ(graph->mi(i, j), direct)
                << "pair (" << i << ", " << j << "), measure "
                << static_cast<int>(measure) << ", budget " << budget;
          }
        }
      }
    }
  }
}

TEST(GraphBuilderTest, OffDiagonalIsPairwiseMi) {
  ExpectStatisticsEqualGraph(FigureThreeTable());
  ExpectStatisticsEqualGraph(NullyMixedAlphabetTable());
}

TEST(GraphBuilderTest, MatrixIsSymmetric) {
  auto graph = BuildDependencyGraph(FigureThreeTable());
  ASSERT_TRUE(graph.ok());
  for (size_t i = 0; i < graph->size(); ++i) {
    for (size_t j = 0; j < graph->size(); ++j) {
      EXPECT_DOUBLE_EQ(graph->mi(i, j), graph->mi(j, i));
    }
  }
}

TEST(GraphBuilderTest, NamesComeFromSchema) {
  auto graph = BuildDependencyGraph(FigureThreeTable());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->name(0), "A");
  EXPECT_EQ(graph->name(3), "D");
}

TEST(GraphBuilderTest, FunctionalDependencyShowsFullMi) {
  // C = f(A) in the Figure 3 table (a1->c1, a3->c2, a4->c2): MI(A;C) must
  // equal H(C).
  Table table = FigureThreeTable();
  auto graph = BuildDependencyGraph(table);
  ASSERT_TRUE(graph.ok());
  EXPECT_NEAR(graph->mi(0, 2), graph->entropy(2), 1e-12);
}

TEST(GraphBuilderTest, ParallelBuildMatchesSerial) {
  Table table = FigureThreeTable();
  DependencyGraphOptions serial;
  DependencyGraphOptions parallel;
  parallel.num_threads = 4;
  auto g1 = BuildDependencyGraph(table, serial);
  auto g2 = BuildDependencyGraph(table, parallel);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  for (size_t i = 0; i < g1->size(); ++i) {
    for (size_t j = 0; j < g1->size(); ++j) {
      EXPECT_DOUBLE_EQ(g1->mi(i, j), g2->mi(i, j));
    }
  }
}

TEST(GraphBuilderTest, EmptyTable) {
  auto schema = Schema::Create({});
  ASSERT_TRUE(schema.ok());
  TableBuilder builder(schema.value());
  auto table = std::move(builder).Build();
  ASSERT_TRUE(table.ok());
  auto graph = BuildDependencyGraph(table.value());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->size(), 0u);
}

TEST(GraphBuilderTest, AlternativeMeasuresKeepEntropyDiagonal) {
  Table table = FigureThreeTable();
  for (DependencyMeasure measure :
       {DependencyMeasure::kNormalizedMutualInformation,
        DependencyMeasure::kCramersV}) {
    DependencyGraphOptions options;
    options.measure = measure;
    auto graph = BuildDependencyGraph(table, options);
    ASSERT_TRUE(graph.ok());
    for (size_t i = 0; i < graph->size(); ++i) {
      // Node labels stay entropies regardless of the edge measure.
      EXPECT_DOUBLE_EQ(graph->entropy(i), EntropyOf(table.column(i)));
      for (size_t j = 0; j < graph->size(); ++j) {
        if (i == j) continue;
        // Both alternative measures are normalized to [0, 1].
        EXPECT_GE(graph->mi(i, j), 0.0);
        EXPECT_LE(graph->mi(i, j), 1.0);
      }
    }
  }
}

TEST(GraphBuilderTest, MeasuresAgreeOnFunctionalDependency) {
  // C = f(A): both alternative measures score the functional pair (A, C)
  // strictly above the non-functional pair (C, D). (B is all-distinct in
  // this 4-row fragment and trivially "determines" everything, so pairs
  // involving B are not informative here.)
  Table table = FigureThreeTable();
  for (DependencyMeasure measure :
       {DependencyMeasure::kNormalizedMutualInformation,
        DependencyMeasure::kCramersV}) {
    DependencyGraphOptions options;
    options.measure = measure;
    auto graph = BuildDependencyGraph(table, options);
    ASSERT_TRUE(graph.ok());
    EXPECT_GT(graph->mi(0, 2), graph->mi(2, 3));
  }
}

// Randomized 12-attribute table with mixed alphabets and a dependency
// chain, deterministic in `seed`.
Table RandomChainTable(size_t rows, uint64_t seed) {
  datagen::BayesNetSpec spec;
  for (size_t i = 0; i < 12; ++i) {
    datagen::AttributeGenSpec attr;
    attr.name = "a" + std::to_string(i);
    attr.alphabet_size = 4 + (i % 5) * 11;
    if (i > 0) {
      attr.parents = {i - 1};
      attr.noise = 0.3;
    }
    spec.attributes.push_back(attr);
  }
  return datagen::GenerateBayesNet(spec, rows, seed).value();
}

TEST(GraphBuilderTest, DenseAndSparseKernelsProduceIdenticalGraphs) {
  // The dense flat-matrix kernel and the sparse hash-map fallback emit
  // counts in the same canonical order, so the graphs must match exactly,
  // for every measure.
  Table table = RandomChainTable(2000, 7);
  for (DependencyMeasure measure :
       {DependencyMeasure::kMutualInformation,
        DependencyMeasure::kNormalizedMutualInformation,
        DependencyMeasure::kCramersV}) {
    DependencyGraphOptions dense;
    dense.measure = measure;
    DependencyGraphOptions sparse;
    sparse.measure = measure;
    sparse.stats.dense_cell_budget = 0;
    auto g1 = BuildDependencyGraph(table, dense);
    auto g2 = BuildDependencyGraph(table, sparse);
    ASSERT_TRUE(g1.ok());
    ASSERT_TRUE(g2.ok());
    for (size_t i = 0; i < g1->size(); ++i) {
      for (size_t j = 0; j < g1->size(); ++j) {
        EXPECT_DOUBLE_EQ(g1->mi(i, j), g2->mi(i, j))
            << "measure " << static_cast<int>(measure) << " cell (" << i
            << ", " << j << ")";
      }
    }
  }
}

TEST(GraphBuilderTest, ThreadCountDoesNotChangeTheGraph) {
  // num_threads is a throughput knob only: 1 worker and 8 workers must
  // yield bit-identical dependency graphs.
  Table table = RandomChainTable(1500, 13);
  DependencyGraphOptions serial;
  DependencyGraphOptions parallel;
  parallel.num_threads = 8;
  auto g1 = BuildDependencyGraph(table, serial);
  auto g2 = BuildDependencyGraph(table, parallel);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  for (size_t i = 0; i < g1->size(); ++i) {
    for (size_t j = 0; j < g1->size(); ++j) {
      EXPECT_DOUBLE_EQ(g1->mi(i, j), g2->mi(i, j));
    }
  }
}

TEST(GraphBuilderTest, DensePathIsReEncodingInvariant) {
  // Definition 1.1 run through the dense kernel: arbitrary one-to-one
  // re-encodings of every column leave the dependency graph unchanged
  // (up to float summation order, since codes are renumbered).
  Table table = RandomChainTable(2000, 21);
  DependencyGraphOptions options;
  // All pairs must take the dense path for this to exercise it.
  std::shared_ptr<const EncodedTable> snapshot =
      EncodedTable::FromTable(table);
  for (size_t i = 0; i < table.num_attributes(); ++i) {
    for (size_t j = i + 1; j < table.num_attributes(); ++j) {
      ASSERT_TRUE(JointCountKernel::UseDense(CodeViewOf(snapshot->column(i)),
                                             CodeViewOf(snapshot->column(j)),
                                             options.stats));
    }
  }
  auto baseline = BuildDependencyGraph(table, options);
  ASSERT_TRUE(baseline.ok());
  for (uint64_t encoding_seed : {31u, 32u}) {
    Rng rng(encoding_seed);
    Table encoded = OpaqueEncode(table, {}, rng);
    auto graph = BuildDependencyGraph(encoded, options);
    ASSERT_TRUE(graph.ok());
    for (size_t i = 0; i < baseline->size(); ++i) {
      for (size_t j = 0; j < baseline->size(); ++j) {
        EXPECT_NEAR(graph->mi(i, j), baseline->mi(i, j), 1e-9)
            << "cell (" << i << ", " << j << ") under seed "
            << encoding_seed;
      }
    }
  }
}

TEST(GraphBuilderTest, NullPolicyAffectsGraph) {
  auto table = ReadCsvString(
      "x,y\n"
      "1,1\n"
      ",2\n"
      "1,\n"
      "2,2\n",
      {});
  ASSERT_TRUE(table.ok());
  DependencyGraphOptions as_symbol;
  DependencyGraphOptions drop;
  drop.stats.null_policy = NullPolicy::kDropNulls;
  auto g1 = BuildDependencyGraph(table.value(), as_symbol);
  auto g2 = BuildDependencyGraph(table.value(), drop);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_NE(g1->entropy(0), g2->entropy(0));
}

}  // namespace
}  // namespace depmatch
