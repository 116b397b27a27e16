// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Frequency histograms over dictionary-encoded columns.
//
// The information-theoretic quantities in the paper (Definitions 2.1-2.3)
// are plug-in estimates over the empirical marginal p(x) and joint p(x,y)
// distributions of column values. Because columns are dictionary-encoded,
// a histogram is just a count per dictionary code (plus the null count),
// and a joint histogram is a sparse map over code pairs.

#ifndef DEPMATCH_STATS_HISTOGRAM_H_
#define DEPMATCH_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "depmatch/table/column.h"

namespace depmatch {

// ---------------------------------------------------------------------------
// Dense/sparse crossover — the one authoritative statement of the rule.
// (joint_kernel.cc implements it in EffectiveDenseBudget/UseDenseForShape
// and refers here; do not restate the rule elsewhere.)
//
// A pair of columns is counted with the dense kernel iff
// (distinct_x + 1) * (distinct_y + 1) fits the *effective* cell budget.
// The effective budget starts from StatsOptions::dense_cell_budget and,
// when StatsOptions::auto_dense_budget is on, is raised to
//   min(rows * kDenseAutoCellsPerRow, kDenseAutoMaxCells)
// whenever that is larger: the dense strategies keep per-pair work
// O(rows + k log k) for k occupied cells regardless of matrix size (the
// sort-based strategy never even allocates the matrix), so admitting more
// cells only costs bounded scratch. The rows factor keeps tiny tables from
// paying for a matrix they barely populate. A dense_cell_budget of 0
// always forces the sparse path and is never overridden by the auto rule.
//
// Pairs that fail the crossover take the exact sparse fallback. Kernel
// choice is a pure performance knob: dense and sparse counts are
// bit-identical, so no cache keys on it.
// ---------------------------------------------------------------------------

// Default static ceiling: 2^20 cells = 8 MiB of uint64 counts per worker.
inline constexpr size_t kDefaultDenseCellBudget = size_t{1} << 20;

// Auto-raise parameters (see the crossover comment above). The cap is
// 2^25 cells = 256 MiB of uint64 counts per worker.
inline constexpr size_t kDenseAutoCellsPerRow = 4096;
inline constexpr size_t kDenseAutoMaxCells = size_t{1} << 25;

// How null cells participate in distribution estimates.
enum class NullPolicy {
  // Null is one more symbol of the alphabet. This matches the paper's data
  // handling: its lab-exam columns that are "mostly blank" show *low*
  // entropy in Figure 4(a), which is only true if blank counts as a single
  // very frequent value. Default.
  kNullAsSymbol,
  // Rows containing a null (in either column, for joint estimates) are
  // excluded from the estimate.
  kDropNulls,
};

// How the counting loops inside the exact kernels are implemented. Every
// dispatch produces bit-identical JointCounts (same cells, same canonical
// order, integer counts), so this is a pure performance knob; kScalar is
// kept as the reference the equivalence tests compare against.
enum class JointKernelDispatch {
  // Shape-based strategy selection: per-lane sub-histograms merged once
  // per pair for row-dominated matrices, touched-cell scatter for
  // mid-size matrices, and a streaming radix-sort strategy for matrices
  // past the cache-friendly range (which never allocates the matrix at
  // all). Lane width is fixed at compile time from the target ISA.
  kAuto,
  // The legacy single-lane loops (one scatter increment per row, scan or
  // touched-cell compaction). Reference implementation for bit-identity.
  kScalar,
};

// Options shared by every pairwise statistic (entropy.h, association.h,
// joint_kernel.h). Lives here, next to NullPolicy, so the counting layer
// and the estimator layer agree on one knob set.
struct StatsOptions {
  NullPolicy null_policy = NullPolicy::kNullAsSymbol;
  // Static part of the dense/sparse crossover budget; see the
  // authoritative rule in the comment block above kDefaultDenseCellBudget.
  size_t dense_cell_budget = kDefaultDenseCellBudget;
  // Enables the measured-shape auto-raise of the budget (same comment
  // block). Ignored when dense_cell_budget is 0 (forced sparse).
  bool auto_dense_budget = true;
  // Counting-loop implementation for the exact kernels; bit-identical
  // either way (pure performance knob).
  JointKernelDispatch dispatch = JointKernelDispatch::kAuto;
};

// Marginal frequency histogram of one column.
class Histogram {
 public:
  // Counts value frequencies of `column` under `policy`.
  static Histogram FromColumn(const Column& column, NullPolicy policy);

  // Number of observations contributing to the histogram.
  uint64_t total() const { return total_; }
  // Count per dictionary code (index = code). Does not include nulls.
  const std::vector<uint64_t>& code_counts() const { return code_counts_; }
  // Count of null observations (0 under kDropNulls).
  uint64_t null_count() const { return null_count_; }
  // Number of distinct observed symbols (including null as one symbol if
  // it was observed and the policy keeps it).
  size_t support_size() const;

  // Empirical probability of dictionary code `code`.
  double Probability(int32_t code) const;

 private:
  std::vector<uint64_t> code_counts_;
  uint64_t null_count_ = 0;
  uint64_t total_ = 0;
  bool null_is_symbol_ = true;
};

// Sparse joint frequency histogram of two equal-length columns. Cells are
// keyed by the pair of dictionary codes.
class JointHistogram {
 public:
  // Counts pair frequencies of (x, y) under `policy`. Under kDropNulls,
  // rows where either column is null are skipped; marginal counts returned
  // by x_counts()/y_counts() are over the same retained rows, so that
  // MI(X;Y) = H(X) + H(Y) - H(X,Y) is computed over a consistent sample.
  // Precondition: x.size() == y.size().
  static JointHistogram FromColumns(const Column& x, const Column& y,
                                    NullPolicy policy);

  uint64_t total() const { return total_; }
  // Joint cell counts keyed by PackCodes(x_code, y_code).
  const std::unordered_map<uint64_t, uint64_t>& cells() const {
    return cells_;
  }
  // Marginal counts over the retained rows, keyed by code (null folded in
  // as its own key under kNullAsSymbol).
  const std::unordered_map<int32_t, uint64_t>& x_counts() const {
    return x_counts_;
  }
  const std::unordered_map<int32_t, uint64_t>& y_counts() const {
    return y_counts_;
  }

  // Number of distinct observed (x, y) pairs.
  size_t support_size() const { return cells_.size(); }

  // Packs two codes (null = -1 allowed) into one 64-bit key.
  static uint64_t PackCodes(int32_t x_code, int32_t y_code);

 private:
  std::unordered_map<uint64_t, uint64_t> cells_;
  std::unordered_map<int32_t, uint64_t> x_counts_;
  std::unordered_map<int32_t, uint64_t> y_counts_;
  uint64_t total_ = 0;
};

}  // namespace depmatch

#endif  // DEPMATCH_STATS_HISTOGRAM_H_
