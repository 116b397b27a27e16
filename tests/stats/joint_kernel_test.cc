#include "depmatch/stats/joint_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/stats/association.h"
#include "depmatch/stats/entropy.h"
#include "depmatch/stats/histogram.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {
namespace {

Column Int64Column(std::initializer_list<int> values) {
  Column col(DataType::kInt64);
  for (int v : values) col.Append(Value(static_cast<int64_t>(v)));
  return col;
}

// Random column with the given alphabet and null probability.
Column RandomColumn(Rng& rng, size_t rows, size_t alphabet,
                    double null_probability) {
  Column col(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(null_probability)) {
      col.Append(Value::Null());
    } else {
      col.Append(Value(static_cast<int64_t>(rng.NextBounded(alphabet))));
    }
  }
  return col;
}

StatsOptions DenseOptions(NullPolicy policy = NullPolicy::kNullAsSymbol) {
  StatsOptions options;
  options.null_policy = policy;
  return options;
}

StatsOptions SparseOptions(NullPolicy policy = NullPolicy::kNullAsSymbol) {
  StatsOptions options;
  options.null_policy = policy;
  options.dense_cell_budget = 0;  // force the hash-map fallback
  return options;
}

TEST(ColumnMarginalTest, MatchesHistogramAndEntropyOf) {
  Rng rng(11);
  Column col = RandomColumn(rng, 500, 17, 0.1);
  for (NullPolicy policy :
       {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
    EncodedColumn encoded = EncodedColumn::FromColumn(col);
    ColumnMarginal m = ComputeColumnMarginal(CodeViewOf(encoded), policy);
    Histogram h = Histogram::FromColumn(col, policy);
    EXPECT_EQ(m.total, h.total());
    EXPECT_EQ(m.support, h.support_size());
    EXPECT_EQ(m.slots[0], h.null_count());
    for (size_t c = 0; c < h.code_counts().size(); ++c) {
      EXPECT_EQ(m.slots[c + 1], h.code_counts()[c]);
    }
    StatsOptions options;
    options.null_policy = policy;
    EXPECT_DOUBLE_EQ(m.entropy, EntropyOf(col, options));
  }
}

TEST(JointCountKernelTest, DenseSelectionRule) {
  EncodedColumn ex = EncodedColumn::FromColumn(Int64Column({0, 1, 2, 3}));
  EncodedColumn ey = EncodedColumn::FromColumn(Int64Column({0, 1, 0, 1}));
  CodeView x = CodeViewOf(ex);  // 4 distinct -> 5 slots
  CodeView y = CodeViewOf(ey);  // 2 distinct -> 3 slots
  StatsOptions options;
  options.auto_dense_budget = false;  // exercise the static budget alone
  options.dense_cell_budget = 15;     // 5 * 3 = 15 fits exactly
  EXPECT_TRUE(JointCountKernel::UseDense(x, y, options));
  options.dense_cell_budget = 14;
  EXPECT_FALSE(JointCountKernel::UseDense(x, y, options));
  options.dense_cell_budget = 0;
  EXPECT_FALSE(JointCountKernel::UseDense(x, y, options));
}

// All-distinct column of `rows` values: rows + 1 slots.
Column DistinctColumn(size_t rows) {
  Column col(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    col.Append(Value(static_cast<int64_t>(r)));
  }
  return col;
}

TEST(JointCountKernelTest, AutoDenseBudgetUsesMeasuredShape) {
  StatsOptions options;
  ASSERT_TRUE(options.auto_dense_budget);
  options.dense_cell_budget = 1;

  // 15 cells exceed the static budget of 1 but fit the measured-shape
  // allowance (4 rows * kDenseAutoCellsPerRow), so the pair goes dense.
  EncodedColumn ex = EncodedColumn::FromColumn(Int64Column({0, 1, 2, 3}));
  EncodedColumn ey = EncodedColumn::FromColumn(Int64Column({0, 1, 0, 1}));
  CodeView x = CodeViewOf(ex);  // 4 rows, 5 slots
  CodeView y = CodeViewOf(ey);  // 3 slots
  EXPECT_TRUE(JointCountKernel::UseDense(x, y, options));

  // Budget 0 still forces sparse: auto never overrides the opt-out.
  options.dense_cell_budget = 0;
  EXPECT_FALSE(JointCountKernel::UseDense(x, y, options));
  options.dense_cell_budget = 1;

  // The allowance is row-bounded: two all-distinct 5000-row columns give
  // 5001^2 ~ 25M cells > 5000 * kDenseAutoCellsPerRow ~ 20.5M, so the
  // pair stays sparse under a tiny static budget...
  EncodedColumn big_ex = EncodedColumn::FromColumn(DistinctColumn(5000));
  EncodedColumn big_ey = EncodedColumn::FromColumn(DistinctColumn(5000));
  CodeView big_x = CodeViewOf(big_ex);
  CodeView big_y = CodeViewOf(big_ey);
  ASSERT_GT(size_t{big_x.num_slots} * big_y.num_slots,
            5000 * kDenseAutoCellsPerRow);
  EXPECT_FALSE(JointCountKernel::UseDense(big_x, big_y, options));

  // ...but a generous static budget still wins (auto only ever raises).
  options.dense_cell_budget = size_t{1} << 26;
  EXPECT_TRUE(JointCountKernel::UseDense(big_x, big_y, options));

  // A hand-built CodeView follows the same rule.
  std::vector<uint32_t> slots = {1, 2, 1, 2};
  CodeView view{slots.data(), slots.size(), 3, 0};
  StatsOptions tiny;
  tiny.dense_cell_budget = 1;
  EXPECT_TRUE(JointCountKernel::UseDense(view, view, tiny));
  tiny.dense_cell_budget = 0;
  EXPECT_FALSE(JointCountKernel::UseDense(view, view, tiny));
}

TEST(JointCountKernelTest, MatchesJointHistogram) {
  Rng rng(5);
  Column x = RandomColumn(rng, 400, 13, 0.15);
  Column y = RandomColumn(rng, 400, 7, 0.15);
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  for (NullPolicy policy :
       {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
    for (bool dense : {true, false}) {
      StatsOptions options = dense ? DenseOptions(policy)
                                   : SparseOptions(policy);
      JointCountKernel kernel;
      const JointCounts& counts =
          kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
      EXPECT_EQ(counts.used_dense, dense);

      JointHistogram joint = JointHistogram::FromColumns(x, y, policy);
      EXPECT_EQ(counts.total, joint.total());
      ASSERT_EQ(counts.num_cells(), joint.cells().size());
      for (size_t c = 0; c < counts.num_cells(); ++c) {
        int32_t x_code = static_cast<int32_t>(counts.cell_x_slots[c]) - 1;
        int32_t y_code = static_cast<int32_t>(counts.cell_y_slots[c]) - 1;
        uint64_t key = JointHistogram::PackCodes(x_code, y_code);
        auto it = joint.cells().find(key);
        ASSERT_NE(it, joint.cells().end());
        EXPECT_EQ(counts.cell_counts[c], it->second);
      }
    }
  }
}

TEST(JointCountKernelTest, CellsAreInCanonicalOrder) {
  Rng rng(9);
  EncodedColumn x =
      EncodedColumn::FromColumn(RandomColumn(rng, 300, 19, 0.05));
  EncodedColumn y =
      EncodedColumn::FromColumn(RandomColumn(rng, 300, 23, 0.05));
  for (bool dense : {true, false}) {
    StatsOptions options = dense ? DenseOptions() : SparseOptions();
    JointCountKernel kernel;
    const JointCounts& counts =
        kernel.Count(CodeViewOf(x), CodeViewOf(y), options);
    for (size_t c = 1; c < counts.num_cells(); ++c) {
      bool ordered =
          counts.cell_x_slots[c - 1] < counts.cell_x_slots[c] ||
          (counts.cell_x_slots[c - 1] == counts.cell_x_slots[c] &&
           counts.cell_y_slots[c - 1] < counts.cell_y_slots[c]);
      EXPECT_TRUE(ordered) << "cell " << c << " out of order";
    }
  }
}

TEST(JointCountKernelTest, DenseAndSparseAreBitIdentical) {
  // The two kernels must agree exactly (not just approximately): they emit
  // cells in the same canonical order, so every downstream fold sums the
  // same doubles in the same order.
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    size_t alphabet_x = 2 + rng.NextBounded(40);
    size_t alphabet_y = 2 + rng.NextBounded(40);
    double null_p = (trial % 2 == 0) ? 0.0 : 0.2;
    Column x = RandomColumn(rng, 600, alphabet_x, null_p);
    Column y = RandomColumn(rng, 600, alphabet_y, null_p);
    for (NullPolicy policy :
         {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
      StatsOptions dense = DenseOptions(policy);
      StatsOptions sparse = SparseOptions(policy);
      EXPECT_DOUBLE_EQ(MutualInformation(x, y, dense),
                       MutualInformation(x, y, sparse));
      EXPECT_DOUBLE_EQ(NormalizedMutualInformation(x, y, dense),
                       NormalizedMutualInformation(x, y, sparse));
      EXPECT_DOUBLE_EQ(CramersV(x, y, dense), CramersV(x, y, sparse));
      EXPECT_DOUBLE_EQ(JointEntropy(x, y, dense),
                       JointEntropy(x, y, sparse));
      EXPECT_DOUBLE_EQ(ConditionalEntropy(x, y, dense),
                       ConditionalEntropy(x, y, sparse));
      EXPECT_DOUBLE_EQ(ChiSquareStatistic(x, y, dense),
                       ChiSquareStatistic(x, y, sparse));
    }
  }
}

// Slot-level equality of two counting passes: same totals, same cells,
// same counts — which (with canonical order) implies every downstream
// double fold is bit-identical.
void ExpectSameCounts(const JointCounts& a, const JointCounts& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.cell_x_slots, b.cell_x_slots);
  EXPECT_EQ(a.cell_y_slots, b.cell_y_slots);
  EXPECT_EQ(a.cell_counts, b.cell_counts);
  EXPECT_EQ(a.has_marginals, b.has_marginals);
  EXPECT_EQ(a.x_marginals, b.x_marginals);
  EXPECT_EQ(a.y_marginals, b.y_marginals);
}

TEST(JointCountKernelTest, AutoDispatchMatchesScalarAcrossStrategies) {
  // Shapes chosen to land in each kAuto strategy: lane-split (cells <=
  // rows), touched-scatter (rows < cells < sort threshold), radix-sort
  // (cells >= 2^17 via two ~600-distinct columns), and the sparse packed
  // sort (budget 0). Every one must reproduce the kScalar reference
  // slot-for-slot.
  struct Shape {
    size_t rows, alphabet_x, alphabet_y;
    bool force_sparse;
  };
  const Shape shapes[] = {
      {2000, 5, 7, false},     // lanes vs scan
      {500, 40, 40, false},    // touched both ways
      {3000, 600, 600, false},  // sorted vs touched (361K cells)
      {3000, 600, 600, true},   // sparse: packed sort vs hash map
  };
  Rng rng(123);
  for (const Shape& shape : shapes) {
    for (NullPolicy policy :
         {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
      EncodedColumn x = EncodedColumn::FromColumn(
          RandomColumn(rng, shape.rows, shape.alphabet_x, 0.1));
      EncodedColumn y = EncodedColumn::FromColumn(
          RandomColumn(rng, shape.rows, shape.alphabet_y, 0.1));
      StatsOptions auto_options;
      auto_options.null_policy = policy;
      if (shape.force_sparse) auto_options.dense_cell_budget = 0;
      StatsOptions scalar_options = auto_options;
      scalar_options.dispatch = JointKernelDispatch::kScalar;

      JointCountKernel auto_kernel;
      JointCountKernel scalar_kernel;
      const JointCounts& a =
          auto_kernel.Count(CodeViewOf(x), CodeViewOf(y), auto_options);
      const JointCounts& s =
          scalar_kernel.Count(CodeViewOf(x), CodeViewOf(y), scalar_options);
      EXPECT_EQ(a.used_dense, !shape.force_sparse);
      ExpectSameCounts(a, s);
    }
  }
}

TEST(JointCountKernelTest, SortStrategyShapeReallyExceedsThreshold) {
  // Guard the sorted-strategy coverage above: if the crossover constants
  // move, the 600x600 shape must still exercise the radix path (cells
  // beyond the touched-scatter range but within the auto dense budget).
  Rng rng(9);
  EncodedColumn x =
      EncodedColumn::FromColumn(RandomColumn(rng, 3000, 600, 0.1));
  EncodedColumn y =
      EncodedColumn::FromColumn(RandomColumn(rng, 3000, 600, 0.1));
  size_t cells = (x.distinct_count() + 1) * (y.distinct_count() + 1);
  EXPECT_GT(cells, size_t{1} << 17);
  EXPECT_GT(cells, size_t{3000});  // not the lane/scan regime
  EXPECT_TRUE(JointCountKernel::UseDense(CodeViewOf(x), CodeViewOf(y),
                                         StatsOptions{}));
}

TEST(JointCountKernelTest, PairMarginalsOnlyWhenDroppingObservedNulls) {
  Rng rng(3);
  EncodedColumn with_nulls_column =
      EncodedColumn::FromColumn(RandomColumn(rng, 200, 6, 0.3));
  EncodedColumn no_nulls_column =
      EncodedColumn::FromColumn(RandomColumn(rng, 200, 6, 0.0));
  CodeView with_nulls = CodeViewOf(with_nulls_column);
  CodeView no_nulls = CodeViewOf(no_nulls_column);
  JointCountKernel kernel;
  EXPECT_FALSE(
      kernel.Count(with_nulls, no_nulls, DenseOptions()).has_marginals);
  EXPECT_FALSE(kernel
                   .Count(no_nulls, no_nulls,
                          DenseOptions(NullPolicy::kDropNulls))
                   .has_marginals);

  const JointCounts& counts =
      kernel.Count(with_nulls, no_nulls, DenseOptions(NullPolicy::kDropNulls));
  ASSERT_TRUE(counts.has_marginals);
  uint64_t x_sum = 0;
  for (uint64_t c : counts.x_marginals) x_sum += c;
  uint64_t y_sum = 0;
  for (uint64_t c : counts.y_marginals) y_sum += c;
  EXPECT_EQ(x_sum, counts.total);
  EXPECT_EQ(y_sum, counts.total);
  EXPECT_EQ(counts.x_marginals[0], 0u);  // dropped rows leave no null mass
}

TEST(JointCountKernelTest, ScratchReuseAcrossPairsIsClean) {
  // One kernel counting many different pairs (alternating dense/sparse)
  // must give the same answers as a fresh kernel per pair: the scratch
  // reset logic may not leak counts between pairs.
  Rng rng(77);
  std::vector<EncodedColumn> encoded;
  for (int i = 0; i < 6; ++i) {
    encoded.push_back(EncodedColumn::FromColumn(
        RandomColumn(rng, 300, 3 + 7 * i, 0.1)));
  }
  std::vector<CodeView> columns;
  for (const EncodedColumn& column : encoded) {
    columns.push_back(CodeViewOf(column));
  }
  JointCountKernel reused;
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = 0; j < columns.size(); ++j) {
      StatsOptions options = DenseOptions();
      // Alternate kernels across pairs.
      if ((i + j) % 2 == 0) options.dense_cell_budget = 0;
      const JointCounts& a = reused.Count(columns[i], columns[j], options);
      uint64_t a_total = a.total;
      std::vector<uint64_t> a_cells = a.cell_counts;
      JointCountKernel fresh;
      const JointCounts& b = fresh.Count(columns[i], columns[j], options);
      EXPECT_EQ(a_total, b.total);
      EXPECT_EQ(a_cells, b.cell_counts);
    }
  }
}

TEST(JointCountKernelTest, EmptyColumns) {
  EncodedColumn x = EncodedColumn::FromColumn(Column(DataType::kInt64));
  EncodedColumn y = EncodedColumn::FromColumn(Column(DataType::kInt64));
  JointCountKernel kernel;
  const JointCounts& counts =
      kernel.Count(CodeViewOf(x), CodeViewOf(y), DenseOptions());
  EXPECT_EQ(counts.total, 0u);
  EXPECT_EQ(counts.num_cells(), 0u);
}

}  // namespace
}  // namespace depmatch
