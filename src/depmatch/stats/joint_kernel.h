// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Pairwise joint-count kernels: the hot path of Table2DepGraph.
//
// Every pairwise statistic (MI, NMI, chi-square / Cramér's V) is a fold
// over the joint count table of two slot-encoded columns
// (table/encoded_column.h). This module provides two interchangeable
// counting kernels plus the deterministic folds:
//
//   * Dense: chosen when the (distinct_x + 1) x (distinct_y + 1) matrix
//     fits the effective cell budget (the authoritative crossover rule
//     lives in histogram.h). Three SIMD-friendly strategies, selected by
//     matrix shape under JointKernelDispatch::kAuto:
//       - lane-split: for matrices no bigger than the row count, the row
//         loop is unrolled over independent per-lane sub-histograms that
//         are merged (and re-zeroed) in one vectorizable pass per pair,
//         breaking the store-to-load dependency chains skewed data causes
//         in a single histogram;
//       - touched-scatter: mid-size matrices keep the classic one
//         increment per row into a flat matrix, compacting and resetting
//         only the touched cells;
//       - sort-based: matrices past the cache-friendly range are counted
//         by packing each row into a flat cell index, radix-sorting the
//         packed keys, and run-length encoding — pure streaming passes,
//         and the matrix itself is never allocated.
//   * Sparse: fallback for pairs whose product exceeds the budget. Under
//     kAuto this also runs the radix-sort strategy (on 64-bit packed
//     keys); kScalar keeps the classic hash map of packed code pairs.
//
// All kernels and strategies emit cells in row-major (x_code, y_code)
// order with the null slot first, so every downstream floating-point fold
// visits cells in the same order regardless of which path ran: counts are
// integers and the fold order is canonical, so every path is bit-identical
// to every other, which the equivalence tests assert with exact equality.
// JointKernelDispatch::kScalar pins the legacy single-lane loops as the
// reference implementation for those tests.
//
// A JointCountKernel instance owns reusable scratch and is meant to live
// per worker thread (the graph builder allocates O(threads) kernels, not
// O(pairs) hash maps).

#ifndef DEPMATCH_STATS_JOINT_KERNEL_H_
#define DEPMATCH_STATS_JOINT_KERNEL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "depmatch/stats/histogram.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {

// Marginal distribution of one column in "slot" form: slots[code + 1] is
// the count of dictionary code `code`, slots[0] the null count (0 under
// kDropNulls). Computed once per column and reused across all pairs by the
// graph builder (the marginal cache).
struct ColumnMarginal {
  std::vector<uint64_t> slots;
  uint64_t total = 0;
  // Number of distinct observed symbols (non-zero slots).
  size_t support = 0;
  // H(X) in bits, folded in slot order (codes first, then null) — the same
  // order as EntropyOf, so the two are bit-identical.
  double entropy = 0.0;
};

// A borrowed slot-encoded column: slots[r] = dictionary code + 1, slot 0 =
// null — the storage form of table/encoded_column.h (EncodedColumn slot
// arrays and SelectionCodes), consumed by the kernels directly. The
// storage is owned elsewhere and must outlive the kernel call.
struct CodeView {
  const uint32_t* slots = nullptr;
  size_t size = 0;
  // Marginal slot-array length: distinct + 1 (slot 0 = null).
  uint32_t num_slots = 1;
  uint64_t null_count = 0;
};

// Borrows the slot array of `column`, which must outlive the view.
CodeView CodeViewOf(const EncodedColumn& column);

// Marginal of a borrowed encoding, folded in slot order.
ColumnMarginal ComputeColumnMarginal(const CodeView& codes, NullPolicy policy);

// Result of one pairwise counting pass. Cells are the non-zero entries of
// the joint count table, stored as parallel arrays in row-major
// (x_slot, y_slot) order where slot = code + 1 and slot 0 is null.
struct JointCounts {
  uint64_t total = 0;
  std::vector<uint32_t> cell_x_slots;
  std::vector<uint32_t> cell_y_slots;
  std::vector<uint64_t> cell_counts;
  // Per-pair marginals over the retained rows. Filled only when the
  // retained-row set is pair-dependent (kDropNulls with nulls present);
  // otherwise the pair-invariant ColumnMarginal of each column applies and
  // `has_marginals` is false.
  bool has_marginals = false;
  std::vector<uint64_t> x_marginals;
  std::vector<uint64_t> y_marginals;
  // Which kernel produced this result (observability / tests).
  bool used_dense = false;

  size_t num_cells() const { return cell_counts.size(); }
};

// Reusable two-column counting kernel. Not thread-safe; use one instance
// per worker. Count() returns a reference to internal storage that remains
// valid until the next Count() call.
class JointCountKernel {
 public:
  // True when the dense kernel will be used for (x, y) under `options`.
  // The crossover uses the measured dictionary sizes against the effective
  // cell budget: dense_cell_budget, raised (when auto_dense_budget is on)
  // to min(rows * kDenseAutoCellsPerRow, kDenseAutoMaxCells). Budget 0
  // always forces the sparse path.
  static bool UseDense(const CodeView& x, const CodeView& y,
                       const StatsOptions& options);

  // Counts pair frequencies of (x, y) under options.null_policy.
  // Precondition: x.size == y.size.
  const JointCounts& Count(const CodeView& x, const CodeView& y,
                           const StatsOptions& options);

 private:
  // CountDense/CountSparse pick a strategy (below) from the matrix shape
  // and options.dispatch; every strategy reads the slot arrays xs/ys row
  // by row and emits the same canonical cells.
  void CountDense(const uint32_t* xs, const uint32_t* ys, size_t rows,
                  size_t dx1, size_t dy1, const StatsOptions& options);
  void CountSparse(const uint32_t* xs, const uint32_t* ys, size_t rows,
                   const StatsOptions& options);

  // Dense strategies. Scan = branch-free increments + whole-matrix
  // compaction scan (cells <= rows); Lanes = the same shape with the row
  // loop split over independent sub-histograms merged once; Touched =
  // scatter with touched-cell tracking; Sorted = pack/radix-sort/RLE with
  // no matrix at all.
  void CountDenseScan(const uint32_t* xs, const uint32_t* ys, size_t rows,
                      size_t dy1, size_t cells, bool drop);
  void CountDenseLanes(const uint32_t* xs, const uint32_t* ys, size_t rows,
                       size_t dy1, size_t cells, bool drop);
  void CountDenseTouched(const uint32_t* xs, const uint32_t* ys, size_t rows,
                         size_t dy1, bool drop);
  void CountDenseSorted(const uint32_t* xs, const uint32_t* ys, size_t rows,
                        size_t dy1, bool drop);

  // Sparse strategies: the classic hash map (kScalar) and the radix sort
  // over 64-bit packed (x_slot << 32 | y_slot) keys (kAuto).
  void CountSparseHash(const uint32_t* xs, const uint32_t* ys, size_t rows,
                       bool drop);
  void CountSparsePacked(const uint32_t* xs, const uint32_t* ys, size_t rows,
                         bool drop);

  // Ascending radix sort of keys_ (LSD, byte digits, ping-pong via
  // keys_tmp_); sorts only the bytes covered by max_key.
  void RadixSortKeys(uint64_t max_key);

  void FillMarginals(size_t x_slots, size_t y_slots);

  JointCounts counts_;
  // Dense scratch; invariant: all-zero between Count() calls.
  std::vector<uint64_t> dense_;
  // Per-lane sub-histograms (kDenseLaneCount * cells uint32 counters);
  // same all-zero invariant.
  std::vector<uint32_t> lanes_;
  // Flat indices of non-zero dense cells for the current pair.
  std::vector<uint64_t> touched_;
  // Packed per-row keys for the sort-based strategies (and radix scratch).
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> keys_tmp_;
  // Sparse scratch, cleared (capacity kept) between pairs.
  std::unordered_map<uint64_t, uint64_t> sparse_;
  std::vector<uint64_t> sparse_keys_;
};

// Deterministic folds over a counting result. All entropies are in bits
// and use the numerically stable form H = log2(N) - (1/N) sum c*log2(c).
double JointEntropyFromCells(const JointCounts& counts);
double EntropyFromSlots(const std::vector<uint64_t>& slots, uint64_t total);
size_t SupportFromSlots(const std::vector<uint64_t>& slots);

// The primitives JointEntropyFromCells is built from, exposed so folds
// that stream cells straight out of retained count state
// (stats/count_state.h) reproduce its accumulation bit-for-bit without
// materializing a JointCounts copy. CellWeightTable memoizes the exact
// doubles std::log2 produces for c * log2(c) at small counts (which
// dominate real folds); CellWeight falls back to direct evaluation past
// the table, exactly as the internal fold does.
inline constexpr size_t kCellWeightTableSize = 4096;
const double* CellWeightTable();
inline double CellWeight(const double* table, uint64_t count) {
  if (count < kCellWeightTableSize) return table[count];
  double c = static_cast<double>(count);
  return c * std::log2(c);
}
// H = log2(N) - weighted / N, clamped at 0 (the stable form above).
double EntropyFromWeighted(double weighted, uint64_t total);

// Pearson chi-square from one counting pass plus the two marginal slot
// vectors (cached or pair-computed; they must cover the retained rows of
// `counts`). Returns 0 for an empty pair.
double ChiSquareFromCounts(const JointCounts& counts,
                           const std::vector<uint64_t>& x_slots,
                           const std::vector<uint64_t>& y_slots);

}  // namespace depmatch

#endif  // DEPMATCH_STATS_JOINT_KERNEL_H_
