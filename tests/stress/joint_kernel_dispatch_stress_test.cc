// Scalar-vs-vectorized bit-identity of the joint-count kernel under the
// thread-count sweep: JointKernelDispatch::kAuto (lane-split / touched /
// radix-sort strategies) must reproduce the kScalar reference graph
// exactly at 1, 2, and 8 threads. Run under the `tsan` preset (ctest
// label `tsan_stress`) this puts the race detector on the per-worker
// kernel scratch while the contract is asserted with exact double
// equality.

#include "depmatch/graph/graph_builder.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "depmatch/common/rng.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace {

// Columns spanning low and high cardinality, so the kAuto dispatch hits
// every dense strategy (lane-split for small alphabets, touched-scatter
// in the middle, and — pushed by the cell budget — the sparse paths).
Table MixedCardinalityTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  std::string csv;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) csv += ',';
    csv += "a" + std::to_string(c);
  }
  csv += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) csv += ',';
      // 4, 16, 64, 256, 1024 distinct values, cycling per column.
      uint64_t alphabet = uint64_t{4} << (4 * (c % 5) / 2);
      csv += "v" + std::to_string(rng.NextBounded(alphabet));
    }
    csv += '\n';
  }
  auto table = ReadCsvString(csv, {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

void ExpectIdenticalGraphs(const DependencyGraph& base,
                           const DependencyGraph& other, size_t threads) {
  ASSERT_EQ(other.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t j = 0; j < base.size(); ++j) {
      EXPECT_EQ(other.mi(i, j), base.mi(i, j))
          << "cell (" << i << "," << j << ") at num_threads=" << threads;
    }
  }
}

TEST(JointKernelDispatchStressTest, AutoMatchesScalarAtEveryThreadCount) {
  Table table = MixedCardinalityTable(600, 12, 271);
  // Budget sweep routes pairs through different strategy mixes: the
  // default admits every pair dense (auto-raise), a tiny budget mixes
  // dense and sparse, and 0 forces all-sparse (packed sort vs hash map).
  const size_t kBudgets[] = {size_t{1} << 20, 5000, 0};
  for (size_t budget : kBudgets) {
    DependencyGraphOptions scalar_options;
    scalar_options.stats.dense_cell_budget = budget;
    scalar_options.stats.dispatch = JointKernelDispatch::kScalar;
    scalar_options.num_threads = 1;
    auto reference = BuildDependencyGraph(table, scalar_options);
    ASSERT_TRUE(reference.ok()) << reference.status();

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      DependencyGraphOptions auto_options;
      auto_options.stats.dense_cell_budget = budget;
      auto_options.num_threads = threads;
      auto graph = BuildDependencyGraph(table, auto_options);
      ASSERT_TRUE(graph.ok()) << graph.status();
      ExpectIdenticalGraphs(reference.value(), graph.value(), threads);

      // The scalar dispatch is thread-invariant too.
      scalar_options.num_threads = threads;
      auto scalar = BuildDependencyGraph(table, scalar_options);
      ASSERT_TRUE(scalar.ok()) << scalar.status();
      ExpectIdenticalGraphs(reference.value(), scalar.value(), threads);
    }
  }
}

}  // namespace
}  // namespace depmatch
