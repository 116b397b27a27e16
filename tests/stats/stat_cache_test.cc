#include "depmatch/stats/stat_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/csv.h"

namespace depmatch {
namespace {

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
      if (rng.NextBernoulli(0.05)) continue;  // empty cell = null
      uint64_t alphabet = std::min<uint64_t>(32, uint64_t{2} << (c % 5));
      csv += "v" + std::to_string(rng.NextBounded(alphabet));
    }
    csv += '\n';
  }
  auto table = ReadCsvString(csv, {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

void ExpectSameStats(const ColumnSelectionStats& a,
                     const ColumnSelectionStats& b) {
  EXPECT_EQ(*a.slots, *b.slots);
  EXPECT_EQ(a.num_slots, b.num_slots);
  EXPECT_EQ(a.null_count, b.null_count);
  EXPECT_EQ(a.marginal.slots, b.marginal.slots);
  EXPECT_EQ(a.marginal.total, b.marginal.total);
  EXPECT_EQ(a.marginal.support, b.marginal.support);
  // Exact: cached entropies must be bit-identical to cold ones.
  EXPECT_EQ(a.marginal.entropy, b.marginal.entropy);
}

TEST(ComputeSelectionStatsTest, FullViewAliasesAndMatchesColumnMarginal) {
  Table table = RandomTable(200, 4, 7);
  EncodedTableView view = EncodedTableView::FromTable(table);
  for (size_t c = 0; c < view.num_attributes(); ++c) {
    auto stats =
        ComputeSelectionStats(view, c, NullPolicy::kNullAsSymbol);
    // Aliased, not copied.
    EXPECT_TRUE(stats->owned_slots.empty());
    EXPECT_EQ(stats->slots, &view.column(c).slots());
    EncodedColumn encoded = EncodedColumn::FromColumn(table.column(c));
    ColumnMarginal direct =
        ComputeColumnMarginal(CodeViewOf(encoded), NullPolicy::kNullAsSymbol);
    EXPECT_EQ(stats->marginal.slots, direct.slots);
    EXPECT_EQ(stats->marginal.total, direct.total);
    EXPECT_EQ(stats->marginal.entropy, direct.entropy);
  }
}

TEST(ComputeSelectionStatsTest, SelectionOwnsRemappedSlots) {
  Table table = RandomTable(200, 3, 11);
  EncodedTableView view = EncodedTableView::FromTable(table);
  auto selected = view.SelectRows({5, 5, 0, 199, 63});
  ASSERT_TRUE(selected.ok());
  auto stats =
      ComputeSelectionStats(selected.value(), 1, NullPolicy::kNullAsSymbol);
  EXPECT_FALSE(stats->owned_slots.empty());
  EXPECT_EQ(stats->slots, &stats->owned_slots);
  EXPECT_EQ(stats->owned_slots.size(), selected->num_rows());
  EXPECT_EQ(stats->marginal.total, selected->num_rows());
}

TEST(StatCacheTest, HitsShareEntriesAcrossEqualSelections) {
  Table table = RandomTable(150, 3, 13);
  EncodedTableView view = EncodedTableView::FromTable(table);
  StatCache cache;

  auto cold = cache.Get(view, 0, NullPolicy::kNullAsSymbol);
  auto hit = cache.Get(view, 0, NullPolicy::kNullAsSymbol);
  EXPECT_EQ(cold.get(), hit.get());
  StatCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 1u);

  // Independently constructed but equal selections share one entry
  // (content-based row digest).
  auto a = view.SelectRows({9, 3, 77});
  auto b = view.SelectRows({9, 3, 77});
  ASSERT_TRUE(a.ok() && b.ok());
  auto from_a = cache.Get(a.value(), 1, NullPolicy::kNullAsSymbol);
  auto from_b = cache.Get(b.value(), 1, NullPolicy::kNullAsSymbol);
  EXPECT_EQ(from_a.get(), from_b.get());

  // Different selections, columns, and policies get separate entries.
  auto c = view.SelectRows({3, 9, 77});
  ASSERT_TRUE(c.ok());
  EXPECT_NE(cache.Get(c.value(), 1, NullPolicy::kNullAsSymbol).get(),
            from_a.get());
  EXPECT_NE(cache.Get(a.value(), 2, NullPolicy::kNullAsSymbol).get(),
            from_a.get());
  EXPECT_NE(cache.Get(a.value(), 1, NullPolicy::kDropNulls).get(),
            from_a.get());
}

TEST(StatCacheTest, CachedEqualsColdComputed) {
  Table table = RandomTable(300, 4, 17);
  EncodedTableView view = EncodedTableView::FromTable(table);
  auto selected = view.SelectRows({0, 10, 20, 30, 40, 50, 10});
  ASSERT_TRUE(selected.ok());
  StatCache cache;
  for (NullPolicy policy :
       {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
    for (size_t c = 0; c < view.num_attributes(); ++c) {
      auto cached = cache.Get(selected.value(), c, policy);
      auto cold = ComputeSelectionStats(selected.value(), c, policy);
      ExpectSameStats(*cached, *cold);
      // A second Get returns the identical object.
      EXPECT_EQ(cache.Get(selected.value(), c, policy).get(), cached.get());
    }
  }
}

TEST(StatCacheTest, DistinctSnapshotsDoNotShareEntries) {
  Table table = RandomTable(80, 2, 29);
  EncodedTableView first = EncodedTableView::FromTable(table);
  EncodedTableView second = EncodedTableView::FromTable(table);
  StatCache cache;
  auto from_first = cache.Get(first, 0, NullPolicy::kNullAsSymbol);
  auto from_second = cache.Get(second, 0, NullPolicy::kNullAsSymbol);
  // Equal content, but snapshot ids differ, so the entries are distinct
  // (snapshot once per base table and reuse the pointer).
  EXPECT_NE(from_first.get(), from_second.get());
  EXPECT_EQ(cache.counters().misses, 2u);
  ExpectSameStats(*from_first, *from_second);
}

TEST(StatCacheTest, EdgeMemoKeysOnOrientationPolicyAndTag) {
  Table table = RandomTable(120, 4, 37);
  EncodedTableView view = EncodedTableView::FromTable(table);
  StatCache cache;
  double value = 0.0;
  EXPECT_FALSE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  cache.PutEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, 0.625);
  ASSERT_TRUE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_EQ(value, 0.625);
  // Orientation, policy, and fold tag are all part of the key: (y, x)
  // folds in a different accumulation order, so it must not alias (x, y).
  EXPECT_FALSE(
      cache.GetEdge(view, 1, 0, NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_FALSE(cache.GetEdge(view, 0, 1, NullPolicy::kDropNulls, 0, &value));
  EXPECT_FALSE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 1, &value));
  // First insert wins.
  cache.PutEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, 0.125);
  ASSERT_TRUE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_EQ(value, 0.625);

  // Keys live in base-column space: a projected view addressing the same
  // base pair in the same orientation shares the entry.
  auto projected = view.Project({2, 3, 0, 1});
  ASSERT_TRUE(projected.ok());
  ASSERT_TRUE(cache.GetEdge(projected.value(), 2, 3,
                            NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_EQ(value, 0.625);

  StatCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.edge_entries, 1u);
  EXPECT_EQ(counters.edge_hits, 3u);
  EXPECT_EQ(counters.edge_misses, 4u);
  cache.Clear();
  EXPECT_FALSE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
}

TEST(StatCacheTest, GenerationTagMakesStaleHitsImpossible) {
  // Incremental-ingestion regression: a view tagged with a newer
  // count-state generation must never hit an entry cached under an older
  // one, for column and edge memos alike — even though table id, row
  // digest, row count, column, and policy are all identical.
  Table table = RandomTable(100, 3, 41);
  EncodedTableView view = EncodedTableView::FromTable(table);
  EXPECT_EQ(view.generation(), 0u);
  EncodedTableView tagged = view.WithGeneration(0xfeedfacecafebeefULL);
  EXPECT_EQ(tagged.generation(), 0xfeedfacecafebeefULL);

  StatCache cache;
  auto before = cache.Get(view, 0, NullPolicy::kNullAsSymbol);
  auto after = cache.Get(tagged, 0, NullPolicy::kNullAsSymbol);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.counters().hits, 0u);

  double value = 0.0;
  cache.PutEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, 0.25);
  EXPECT_FALSE(
      cache.GetEdge(tagged, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  // Same generation still hits.
  ASSERT_TRUE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_EQ(value, 0.25);

  // Derived views inherit the tag, so projections/selections of an
  // appended-to table stay isolated from pre-append entries too.
  auto projected = tagged.Project({1, 2});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->generation(), tagged.generation());
  auto selected = tagged.SelectRows({1, 2, 3});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->generation(), tagged.generation());
}

TEST(StatCacheTest, EvictColumnsDropsExactlyTouchedEntries) {
  Table table = RandomTable(90, 4, 43);
  EncodedTableView view = EncodedTableView::FromTable(table);
  StatCache cache;
  for (size_t c = 0; c < 4; ++c) {
    cache.Get(view, c, NullPolicy::kNullAsSymbol);
  }
  cache.PutEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, 0.1);
  cache.PutEdge(view, 2, 3, NullPolicy::kNullAsSymbol, 0, 0.2);
  cache.PutEdge(view, 1, 3, NullPolicy::kNullAsSymbol, 0, 0.3);

  // Evicting column 1 drops its marginal entry and both edges touching
  // it, and nothing else. A foreign table id drops nothing.
  EXPECT_EQ(cache.EvictColumns(view.base().id() + 1, {0, 1, 2, 3}), 0u);
  EXPECT_EQ(cache.EvictColumns(view.base().id(), {1}), 3u);
  StatCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.entries, 3u);
  EXPECT_EQ(counters.edge_entries, 1u);
  double value = 0.0;
  EXPECT_FALSE(
      cache.GetEdge(view, 0, 1, NullPolicy::kNullAsSymbol, 0, &value));
  ASSERT_TRUE(
      cache.GetEdge(view, 2, 3, NullPolicy::kNullAsSymbol, 0, &value));
  EXPECT_EQ(value, 0.2);
}

TEST(StatCacheTest, ClearDropsEntriesButKeepsOutstandingPointers) {
  Table table = RandomTable(60, 2, 31);
  EncodedTableView view = EncodedTableView::FromTable(table);
  StatCache cache;
  auto stats = cache.Get(view, 1, NullPolicy::kNullAsSymbol);
  cache.Clear();
  StatCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  // The outstanding entry is still fully usable.
  EXPECT_EQ(stats->marginal.total, view.num_rows());
  // Re-fetch recomputes an equal entry.
  ExpectSameStats(*cache.Get(view, 1, NullPolicy::kNullAsSymbol), *stats);
}

}  // namespace
}  // namespace depmatch
