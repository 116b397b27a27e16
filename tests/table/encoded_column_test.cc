#include "depmatch/table/encoded_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table_ops.h"

namespace depmatch {
namespace {

Table MakeTable() {
  auto table = ReadCsvString(
      "id,grp,score\n"
      "1,a,10\n"
      "2,b,20\n"
      "3,a,\n"
      "4,c,40\n"
      "5,b,50\n"
      "6,a,60\n",
      {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

// Random opaque-string table mixing cardinalities and nulls.
Table RandomTable(size_t rows, size_t cols, uint64_t seed) {
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
      if (rng.NextBernoulli(0.1)) continue;  // empty cell = null
      uint64_t alphabet = std::min<uint64_t>(64, uint64_t{2} << (c % 6));
      csv += "v" + std::to_string(rng.NextBounded(alphabet));
    }
    csv += '\n';
  }
  auto table = ReadCsvString(csv, {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

// Expects the slot array to be exactly column.codes() shifted by one.
void ExpectSlotsMatchColumn(const EncodedColumn& encoded,
                            const Column& column) {
  ASSERT_EQ(encoded.size(), column.size());
  EXPECT_EQ(encoded.distinct_count(), column.distinct_count());
  EXPECT_EQ(encoded.null_count(), column.null_count());
  for (size_t r = 0; r < column.size(); ++r) {
    EXPECT_EQ(encoded.slots()[r],
              static_cast<uint32_t>(column.codes()[r] + 1));
  }
}

TEST(EncodedColumnTest, SlotEncodingMatchesColumnCodes) {
  Table table = MakeTable();
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    ExpectSlotsMatchColumn(EncodedColumn::FromColumn(table.column(c)),
                           table.column(c));
  }
}

TEST(EncodedTableTest, SnapshotIdsAreUnique) {
  Table table = MakeTable();
  auto first = EncodedTable::FromTable(table);
  auto second = EncodedTable::FromTable(table);
  EXPECT_NE(first->id(), second->id());
  EXPECT_EQ(first->num_rows(), table.num_rows());
  EXPECT_EQ(first->num_attributes(), table.num_attributes());
}

TEST(EncodedTableViewTest, FullViewAliasesBaseColumns) {
  Table table = MakeTable();
  EncodedTableView view = EncodedTableView::FromTable(table);
  ASSERT_TRUE(view.valid());
  EXPECT_FALSE(view.has_row_selection());
  EXPECT_EQ(view.row_digest(), kFullRowsDigest);
  EXPECT_EQ(view.num_rows(), table.num_rows());
  ASSERT_EQ(view.num_attributes(), table.num_attributes());
  for (size_t c = 0; c < view.num_attributes(); ++c) {
    EXPECT_EQ(view.attribute_name(c), table.schema().attribute(c).name);
    // Aliased, not copied: same storage as the base encoding.
    EXPECT_EQ(&view.column(c), &view.base().column(c));
  }
}

TEST(EncodedTableViewTest, ProjectMatchesProjectColumns) {
  Table table = RandomTable(200, 6, 41);
  EncodedTableView view = EncodedTableView::FromTable(table);
  std::vector<size_t> indices = {4, 0, 2};
  auto projected_view = view.Project(indices);
  ASSERT_TRUE(projected_view.ok());
  auto projected_table = ProjectColumns(table, indices);
  ASSERT_TRUE(projected_table.ok());
  ASSERT_EQ(projected_view->num_attributes(),
            projected_table->num_attributes());
  for (size_t c = 0; c < indices.size(); ++c) {
    EXPECT_EQ(projected_view->attribute_name(c),
              projected_table->schema().attribute(c).name);
    // ProjectColumns copies columns whole (no re-intern), so the slot
    // arrays must match the projected table's codes exactly.
    ExpectSlotsMatchColumn(projected_view->column(c),
                           projected_table->column(c));
  }
  EXPECT_FALSE(view.Project({9}).ok());
}

TEST(EncodedTableViewTest, SelectionCodesMatchMaterializedSelectRows) {
  Table table = RandomTable(300, 5, 67);
  EncodedTableView view = EncodedTableView::FromTable(table);
  std::vector<uint32_t> rows = {7, 7, 0, 299, 41, 8, 8, 120};
  auto selected_view = view.SelectRows(rows);
  ASSERT_TRUE(selected_view.ok());
  auto selected_table =
      SelectRows(table, std::vector<size_t>(rows.begin(), rows.end()));
  ASSERT_TRUE(selected_table.ok());
  EXPECT_EQ(selected_view->num_rows(), selected_table->num_rows());
  for (size_t c = 0; c < view.num_attributes(); ++c) {
    SelectionCodes codes =
        MaterializeSelectionCodes(view.column(c),
                                  selected_view->row_selection());
    const Column& column = selected_table->column(c);
    // First-appearance remap reproduces TableBuilder's interning order:
    // codes, distinct count, and null count all match the re-interned
    // materialization exactly.
    ASSERT_EQ(codes.slots.size(), column.size());
    EXPECT_EQ(codes.num_slots, column.distinct_count() + 1);
    EXPECT_EQ(codes.null_count, column.null_count());
    for (size_t r = 0; r < column.size(); ++r) {
      EXPECT_EQ(codes.slots[r],
                static_cast<uint32_t>(column.codes()[r] + 1));
    }
  }
  EXPECT_FALSE(view.SelectRows({300}).ok());
}

TEST(EncodedTableViewTest, SelectionsCompose) {
  Table table = RandomTable(100, 3, 5);
  EncodedTableView view = EncodedTableView::FromTable(table);
  auto first = view.SelectRows({50, 10, 30, 70, 90});
  ASSERT_TRUE(first.ok());
  // View-relative: row 1 of `first` is base row 10, etc.
  auto second = first->SelectRows({1, 3, 3});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->row_selection(),
            (std::vector<uint32_t>{10, 70, 70}));
  // Out of range relative to the *view's* row count, not the base's.
  EXPECT_FALSE(first->SelectRows({5}).ok());

  EncodedTableView head = first->Head(2);
  ASSERT_TRUE(head.has_row_selection());
  EXPECT_EQ(head.row_selection(), (std::vector<uint32_t>{50, 10}));
}

TEST(EncodedTableViewTest, SampleMatchesSampleRows) {
  Table table = RandomTable(250, 4, 23);
  EncodedTableView view = EncodedTableView::FromTable(table);
  // Same seed on both paths: the view's draw must consume the rng exactly
  // like SampleRows so shared seeds select identical rows.
  Rng view_rng(99);
  Rng table_rng(99);
  EncodedTableView sampled_view = view.Sample(60, view_rng);
  Table sampled_table = SampleRows(table, 60, table_rng);
  ASSERT_EQ(sampled_view.num_rows(), sampled_table.num_rows());
  for (size_t c = 0; c < view.num_attributes(); ++c) {
    SelectionCodes codes = MaterializeSelectionCodes(
        view.column(c), sampled_view.row_selection());
    const Column& column = sampled_table.column(c);
    for (size_t r = 0; r < column.size(); ++r) {
      EXPECT_EQ(codes.slots[r],
                static_cast<uint32_t>(column.codes()[r] + 1));
    }
  }
}

TEST(RowSelectionDigestTest, ContentBasedAndOrderSensitive) {
  std::vector<uint32_t> rows = {3, 1, 4, 1, 5};
  std::vector<uint32_t> same = {3, 1, 4, 1, 5};
  std::vector<uint32_t> reordered = {1, 3, 4, 1, 5};
  EXPECT_EQ(RowSelectionDigest(rows), RowSelectionDigest(same));
  EXPECT_NE(RowSelectionDigest(rows), RowSelectionDigest(reordered));
  // The empty selection digest is the reserved "all rows" sentinel.
  EXPECT_EQ(RowSelectionDigest({}), kFullRowsDigest);

  // Independently built but equal selections share a digest through the
  // view API too.
  Table table = MakeTable();
  EncodedTableView view = EncodedTableView::FromTable(table);
  auto a = view.SelectRows({2, 0, 5});
  auto b = view.SelectRows({2, 0, 5});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->row_digest(), b->row_digest());
  EXPECT_NE(a->row_digest(), kFullRowsDigest);
}

}  // namespace
}  // namespace depmatch
