// Mergeable count state: Append/Merge must reproduce, exactly, the
// counts a cold pass over the concatenated table produces — same slot
// numbering, same canonical cell order, same retained marginals — for
// both null policies, both representations (dense / packed-sparse),
// and any batching of the same rows.

#include "depmatch/stats/count_state.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "depmatch/datagen/datasets.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/encoded_column.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace {

Schema TestSchema() {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kString},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

// Small deterministic table mixing repeats, fresh values per batch, and
// (optionally) nulls.
Table MakeBatch(uint64_t seed, size_t rows, bool with_nulls) {
  TableBuilder builder(TestSchema());
  for (size_t r = 0; r < rows; ++r) {
    uint64_t h = seed * 1000003 + r * 2654435761u;
    if (with_nulls && h % 7 == 3) {
      builder.AppendValue(0, Value::Null());
    } else {
      builder.AppendValue(0, Value(static_cast<int64_t>(h % 11)));
    }
    builder.AppendValue(1, Value(static_cast<int64_t>((h / 11) % 5)));
    if (with_nulls && h % 5 == 1) {
      builder.AppendValue(2, Value::Null());
    } else {
      builder.AppendValue(2, Value("v" + std::to_string(h % 17)));
    }
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

void ExpectSameMarginal(const ColumnMarginal& got, const ColumnMarginal& want,
                        size_t column) {
  EXPECT_EQ(got.slots, want.slots) << "column " << column;
  EXPECT_EQ(got.total, want.total) << "column " << column;
  EXPECT_EQ(got.support, want.support) << "column " << column;
  EXPECT_EQ(got.entropy, want.entropy) << "column " << column;
}

void ExpectSameJoint(const JointCounts& got, const JointCounts& want,
                     size_t i, size_t j) {
  EXPECT_EQ(got.total, want.total) << "pair " << i << "," << j;
  ASSERT_EQ(got.cell_x_slots, want.cell_x_slots) << "pair " << i << "," << j;
  ASSERT_EQ(got.cell_y_slots, want.cell_y_slots) << "pair " << i << "," << j;
  ASSERT_EQ(got.cell_counts, want.cell_counts) << "pair " << i << "," << j;
  EXPECT_EQ(got.has_marginals, want.has_marginals)
      << "pair " << i << "," << j;
  if (want.has_marginals) {
    EXPECT_EQ(got.x_marginals, want.x_marginals) << "pair " << i << "," << j;
    EXPECT_EQ(got.y_marginals, want.y_marginals) << "pair " << i << "," << j;
  }
}

// Asserts every emission of `state` equals a cold kernel pass over
// `reference` under the state's own options.
void ExpectMatchesColdPass(const TableCountState& state,
                           const Table& reference) {
  ASSERT_EQ(state.rows(), reference.num_rows());
  size_t n = reference.num_attributes();
  NullPolicy policy = state.options().stats.null_policy;
  std::shared_ptr<const EncodedTable> encoded =
      EncodedTable::FromTable(reference);
  JointCountKernel kernel;
  for (size_t i = 0; i < n; ++i) {
    ExpectSameMarginal(
        state.EmitMarginal(i),
        ComputeColumnMarginal(CodeViewOf(encoded->column(i)), policy), i);
  }
  JointCounts emitted;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const JointCounts& cold =
          kernel.Count(CodeViewOf(encoded->column(i)),
                       CodeViewOf(encoded->column(j)), state.options().stats);
      state.EmitJoint(i, j, &emitted);
      ExpectSameJoint(emitted, cold, i, j);
    }
  }
}

struct CountStateCase {
  NullPolicy policy;
  bool with_nulls;
  // 0 forces every pair (kernel AND state) onto the sparse path.
  size_t dense_budget;
};

class CountStateEquivalence
    : public ::testing::TestWithParam<CountStateCase> {};

CountStateOptions CaseOptions(const CountStateCase& c) {
  CountStateOptions options;
  options.stats.null_policy = c.policy;
  options.stats.dense_cell_budget = c.dense_budget;
  if (c.dense_budget == 0) options.stats.auto_dense_budget = false;
  options.dense_state_cell_budget = c.dense_budget;
  return options;
}

TEST_P(CountStateEquivalence, AppendChainMatchesColdPass) {
  const CountStateCase& c = GetParam();
  Table base = MakeBatch(1, 120, c.with_nulls);
  std::vector<Table> deltas = {MakeBatch(2, 40, c.with_nulls),
                               MakeBatch(3, 1, c.with_nulls),
                               MakeBatch(4, 77, c.with_nulls)};

  Result<TableCountState> state =
      TableCountState::FromTable(base, CaseOptions(c));
  ASSERT_TRUE(state.ok()) << state.status();
  for (const Table& delta : deltas) {
    ASSERT_TRUE(state->Append(delta).ok());
  }
  Result<Table> concatenated = datagen::ConcatenateSlices(base, deltas);
  ASSERT_TRUE(concatenated.ok()) << concatenated.status();
  ExpectMatchesColdPass(*state, *concatenated);
}

TEST_P(CountStateEquivalence, MergeMatchesColdPassAndAppendDigest) {
  const CountStateCase& c = GetParam();
  Table left = MakeBatch(5, 90, c.with_nulls);
  Table right = MakeBatch(6, 60, c.with_nulls);

  Result<TableCountState> a = TableCountState::FromTable(left, CaseOptions(c));
  Result<TableCountState> b =
      TableCountState::FromTable(right, CaseOptions(c));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Merge(*b).ok());

  Result<Table> concatenated = datagen::ConcatenateSlices(left, {right});
  ASSERT_TRUE(concatenated.ok());
  ExpectMatchesColdPass(*a, *concatenated);
  EXPECT_EQ(a->generation(), 2u);

  // Same rows appended instead of merged: same emission, different
  // digest chain (the digest is an ingestion-history chain, and append
  // vs merge are distinct histories by design).
  Result<TableCountState> appended =
      TableCountState::FromTable(left, CaseOptions(c));
  ASSERT_TRUE(appended.ok());
  ASSERT_TRUE(appended->Append(right).ok());
  ExpectMatchesColdPass(*appended, *concatenated);
  EXPECT_NE(appended->digest(), a->digest());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CountStateEquivalence,
    ::testing::Values(
        CountStateCase{NullPolicy::kNullAsSymbol, false, size_t{1} << 16},
        CountStateCase{NullPolicy::kNullAsSymbol, true, size_t{1} << 16},
        CountStateCase{NullPolicy::kNullAsSymbol, true, 0},
        CountStateCase{NullPolicy::kDropNulls, false, size_t{1} << 16},
        CountStateCase{NullPolicy::kDropNulls, true, size_t{1} << 16},
        CountStateCase{NullPolicy::kDropNulls, true, 0}));

TEST(CountStateTest, RejectsSchemaMismatch) {
  Result<TableCountState> state =
      TableCountState::FromTable(MakeBatch(1, 10, false), {});
  ASSERT_TRUE(state.ok());
  Result<Schema> other = Schema::Create({{"x", DataType::kInt64}});
  ASSERT_TRUE(other.ok());
  TableBuilder builder(*other);
  builder.AppendValue(0, Value(int64_t{1}));
  Result<Table> table = std::move(builder).Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(state->Append(*table).code(), StatusCode::kInvalidArgument);
}

TEST(CountStateTest, GenerationAndDigestChainPerIngestion) {
  Table base = MakeBatch(1, 50, false);
  Table delta = MakeBatch(2, 20, false);
  Result<TableCountState> state = TableCountState::FromTable(base, {});
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->generation(), 1u);
  uint64_t d1 = state->digest();
  ASSERT_TRUE(state->Append(delta).ok());
  EXPECT_EQ(state->generation(), 2u);
  EXPECT_NE(state->digest(), d1);

  // Deterministic: the same ingestion history replayed gives the same
  // chain.
  Result<TableCountState> replay = TableCountState::FromTable(base, {});
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->digest(), d1);
  ASSERT_TRUE(replay->Append(delta).ok());
  EXPECT_EQ(replay->digest(), state->digest());

  // Empty deltas are no-ops.
  TableBuilder builder(TestSchema());
  Result<Table> empty = std::move(builder).Build();
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(state->Append(*empty).ok());
  EXPECT_EQ(state->generation(), 2u);
}

TEST(CountStateTest, DirtySymbolPolicyMarksEverything) {
  Result<TableCountState> state =
      TableCountState::FromTable(MakeBatch(1, 50, false), {});
  ASSERT_TRUE(state.ok());
  state->ClearDirty();
  EXPECT_FALSE(state->dirty().any());
  ASSERT_TRUE(state->Append(MakeBatch(2, 5, false)).ok());
  // Under kNullAsSymbol every total grew: everything is dirty.
  EXPECT_EQ(state->dirty().CountDirtyColumns(), 3u);
  EXPECT_EQ(state->dirty().CountDirtyPairs(), 3u);
}

TEST(CountStateTest, DirtyDropPolicyIsSelective) {
  CountStateOptions options;
  options.stats.null_policy = NullPolicy::kDropNulls;
  Result<TableCountState> state =
      TableCountState::FromTable(MakeBatch(1, 50, false), options);
  ASSERT_TRUE(state.ok());
  state->ClearDirty();

  // A delta that is entirely null in column 0: column 0's retained rows
  // did not change, so neither its marginal nor any pair is affected
  // through counts — but pairs (0, j) flip onto per-pair marginals the
  // moment column 0 first contains nulls, so they ARE dirty.
  TableBuilder builder(TestSchema());
  for (size_t r = 0; r < 4; ++r) {
    builder.AppendValue(0, Value::Null());
    builder.AppendValue(1, Value(int64_t{1}));
    builder.AppendValue(2, Value("v1"));
  }
  Result<Table> delta = std::move(builder).Build();
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(state->Append(*delta).ok());

  EXPECT_FALSE(state->dirty().column(0));
  EXPECT_TRUE(state->dirty().column(1));
  EXPECT_TRUE(state->dirty().column(2));
  EXPECT_TRUE(state->dirty().pair(0, 1));  // null-transition flip
  EXPECT_TRUE(state->dirty().pair(0, 2));  // null-transition flip
  EXPECT_TRUE(state->dirty().pair(1, 2));  // retained rows added
}

TEST(CountStateTest, RepresentationCrossoverPreservesCounts) {
  // A tiny state budget forces pairs sparse even though the kernel
  // counts densely; emission must not care.
  Table base = MakeBatch(1, 120, true);
  CountStateOptions dense_options;
  dense_options.dense_state_cell_budget = size_t{1} << 16;
  CountStateOptions sparse_options;
  sparse_options.dense_state_cell_budget = 0;

  Result<TableCountState> dense = TableCountState::FromTable(base, dense_options);
  Result<TableCountState> sparse =
      TableCountState::FromTable(base, sparse_options);
  ASSERT_TRUE(dense.ok() && sparse.ok());
  EXPECT_TRUE(dense->pair_dense(0, 1));
  EXPECT_FALSE(sparse->pair_dense(0, 1));

  Table delta = MakeBatch(2, 60, true);
  ASSERT_TRUE(dense->Append(delta).ok());
  ASSERT_TRUE(sparse->Append(delta).ok());
  JointCounts from_dense;
  JointCounts from_sparse;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      dense->EmitJoint(i, j, &from_dense);
      sparse->EmitJoint(i, j, &from_sparse);
      from_dense.used_dense = from_sparse.used_dense;  // repr may differ
      ExpectSameJoint(from_sparse, from_dense, i, j);
    }
  }
}

TEST(CountStateTest, ThreadCountInvariant) {
  Table base = MakeBatch(1, 200, true);
  Table delta = MakeBatch(2, 80, true);
  JointCounts want;
  JointCounts got;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    CountStateOptions options;
    options.num_threads = threads;
    Result<TableCountState> state = TableCountState::FromTable(base, options);
    ASSERT_TRUE(state.ok());
    ASSERT_TRUE(state->Append(delta).ok());
    if (threads == 1) {
      state->EmitJoint(0, 2, &want);
      continue;
    }
    state->EmitJoint(0, 2, &got);
    ExpectSameJoint(got, want, 0, 2);
  }
}

}  // namespace
}  // namespace depmatch
