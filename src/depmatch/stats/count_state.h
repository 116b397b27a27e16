// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Mergeable joint/marginal count state: the data behind an incremental
// Table2DepGraph (graph/incremental_builder.h).
//
// A TableCountState holds, for one table, every per-column marginal
// count vector and every strict-upper-triangle pairwise joint count
// table, in the same slot encoding the exact counting kernels use
// (slot = dictionary code + 1, slot 0 = null; stats/joint_kernel.h).
// Counts are integers, so the state is *mergeable*: Append(delta) and
// Merge(other) combine counts in O(delta rows x pairs) and
// O(state cells), never O(total rows), and the combined state emits
// JointCounts / ColumnMarginal values that are byte-for-byte what one
// cold counting pass over the concatenated table would produce.
//
// Bit-identity argument (the contract incremental_builder_test.cc
// asserts at 1/2/8 threads across dense/sparse kernel strategies):
//   * Slot numbering. The state dictionary extends by first appearance:
//     Append interns the delta column's dictionary in order, and a
//     delta dictionary is itself first-appearance ordered, so a value
//     unseen by the state receives exactly the slot it would get when
//     TableBuilder re-interns the concatenated rows. Slot streams of
//     the concatenated table and of the state therefore coincide.
//   * Cell counts. Every kernel strategy emits cells in canonical
//     row-major (x_slot, y_slot) order with integer counts, and
//     integer addition is exact — so summed per-batch counts equal the
//     one-pass counts, and emission walks cells in the same canonical
//     order every downstream floating-point fold expects.
//   * Marginals. Emitted marginals replay ComputeColumnMarginal's slot
//     fold on the summed counts; under kDropNulls the pair-retained
//     marginals are accumulated additively per batch (from the kernel
//     when the batch had nulls, else the batch's own per-column counts,
//     which cover exactly the retained rows), and the has_marginals
//     flag is re-derived from the *merged* null totals — the same rule
//     the kernel applies to the concatenated columns.
//
// The DirtySet records which columns and pairs an Append/Merge actually
// changed, so a graph refresh recomputes only those entries:
//   * kNullAsSymbol: any non-empty delta changes every probability
//     (all totals grow), so everything is dirty.
//   * kDropNulls: a column is dirty iff the delta added retained
//     (non-null) rows to it; a pair is dirty iff the delta added
//     retained rows to the pair, or a column's null count made the
//     0 -> >0 transition that flips the pair onto per-pair marginals.
//
// Representation mirrors the PR 7 dispatcher split: small pairs keep a
// dense flat matrix (O(1) cell updates), large ones a packed-sparse
// sorted (x_slot << 32 | y_slot) key array. Sparse batches land in a
// small sorted overlay (O(batch) per Append) that is compacted into the
// base array only once it outgrows a fraction of it, keeping Append
// amortized O(delta), never O(state). The choice is per pair,
// re-evaluated as dictionaries grow, and never affects emitted values:
// emission walks base and overlay as one ordered merge.
//
// Thread safety: none — a TableCountState is single-writer, like the
// tables it shadows. Append/Merge internally fan the per-pair counting
// across options.num_threads workers; each pair's integer state is
// touched by exactly one worker, so results are thread-invariant.

#ifndef DEPMATCH_STATS_COUNT_STATE_H_
#define DEPMATCH_STATS_COUNT_STATE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/schema.h"
#include "depmatch/table/table.h"
#include "depmatch/table/value.h"

namespace depmatch {

struct CountStateOptions {
  // Null policy and kernel knobs for the per-batch counting passes.
  StatsOptions stats;
  // Worker threads for the O(n^2) per-pair passes; results are
  // identical at any value.
  size_t num_threads = 1;
  // Cell ceiling for a pair's *retained* dense matrix. Unlike the
  // kernels' per-worker scratch (one matrix, reused), the state keeps
  // every pair's counts live at once, so the dense form is held to a
  // much smaller footprint before the packed-sparse form takes over.
  // Representation choice never affects emitted values.
  size_t dense_state_cell_budget = size_t{1} << 16;
};

// Which columns and pairs changed since the last ClearDirty().
class DirtySet {
 public:
  DirtySet() = default;
  explicit DirtySet(size_t n) { Reset(n); }

  void Reset(size_t n);
  void MarkColumn(size_t i);
  void MarkPair(size_t i, size_t j);  // unordered; stored upper-triangle
  void MarkAll();
  void Clear();

  size_t num_columns() const { return n_; }
  bool column(size_t i) const { return columns_[i] != 0; }
  bool pair(size_t i, size_t j) const;
  bool any() const { return any_; }
  size_t CountDirtyColumns() const;
  size_t CountDirtyPairs() const;

 private:
  size_t n_ = 0;
  std::vector<uint8_t> columns_;
  // Strict upper triangle, flattened in (i, j > i) order.
  std::vector<uint8_t> pairs_;
  bool any_ = false;
};

// Marginal count state of one column: the state-global dictionary (a
// superset of every ingested batch's dictionary, in concatenated
// first-appearance order) plus per-slot counts.
class ColumnCountState {
 public:
  ColumnCountState() = default;

  // Seeds from a column: adopts its dictionary order and counts.
  static ColumnCountState FromColumn(const Column& column);

  // Per-batch ingestion output: the batch's rows translated into state
  // slots, plus its per-slot counts (sized to the post-append
  // num_slots) — exactly what the pair pass and the kDropNulls
  // retained-marginal bookkeeping consume.
  struct BatchDelta {
    std::vector<uint32_t> slots;
    std::vector<uint64_t> slot_counts;
    uint64_t null_count = 0;
  };

  // Interns the delta's dictionary (first-appearance order preserved)
  // and folds its counts in. Precondition: delta.type() == type().
  BatchDelta Append(const Column& delta);

  // Folds another state in; returns the other-slot -> this-slot
  // translation (index 0, null, maps to 0). Precondition: same type().
  std::vector<uint32_t> MergeFrom(const ColumnCountState& other);

  // The marginal a cold ComputeColumnMarginal over the concatenated
  // column would produce, bit for bit.
  ColumnMarginal EmitMarginal(NullPolicy policy) const;

  DataType type() const { return type_; }
  uint64_t rows() const { return rows_; }
  uint64_t null_count() const { return slot_counts_[0]; }
  uint32_t num_slots() const {
    return static_cast<uint32_t>(dictionary_.size() + 1);
  }
  const std::vector<uint64_t>& slot_counts() const { return slot_counts_; }

 private:
  uint32_t InternValue(const Value& value);

  DataType type_ = DataType::kInt64;
  std::vector<Value> dictionary_;  // first-appearance order
  std::unordered_map<Value, uint32_t, ValueHash> index_;
  std::vector<uint64_t> slot_counts_{0};  // slot 0 = null
  uint64_t rows_ = 0;
};

// Joint count state of one column pair. Dense (flat row-major matrix)
// or packed-sparse (sorted (x_slot << 32 | y_slot) keys + counts);
// both emit identical canonical cells.
class PairCountState {
 public:
  PairCountState() = default;

  // (Re)shapes to the given slot dims and representation, converting
  // counts losslessly. Dims only ever grow.
  void Reshape(uint32_t dx1, uint32_t dy1, bool dense, bool track_retained);

  // Folds one per-batch kernel result in. Cells must be state-space
  // (counted over translated slots with the state's num_slots) and in
  // canonical ascending order — which every kernel strategy guarantees.
  // `batch_x` / `batch_y` are the batch's per-column state-space counts
  // (BatchDelta::slot_counts), used for the retained-marginal fold when
  // the kernel did not supply per-pair marginals.
  void Apply(const JointCounts& batch, const std::vector<uint64_t>& batch_x,
             const std::vector<uint64_t>& batch_y);

  // Folds another pair state in through the column slot translations.
  void MergeTranslated(const PairCountState& other,
                       const std::vector<uint32_t>& trans_x,
                       const std::vector<uint32_t>& trans_y);

  // Reconstructs the cold kernel's output for the concatenated pair.
  // `has_marginals` is the caller's re-derivation of the kernel rule
  // from the merged column null totals.
  void Emit(JointCounts* out, bool has_marginals) const;

  uint64_t total() const { return total_; }
  bool dense() const { return dense_; }
  size_t num_cells() const;

  // Sum of CellWeight(table, count) over the canonical cell stream: the
  // JointEntropyFromCells accumulation applied to this pair without
  // emitting the cells. Bit-identical to folding ForEachCell's stream —
  // dense zero cells contribute table[0] = +0.0, an exact identity on
  // the (non-negative) partial sums, and the sparse walk visits the
  // base/overlay union in the same canonical order — but branch-free on
  // the dense form and key-comparison-free over the sparse base runs,
  // which is what makes a full-matrix MI refresh cheap.
  double FoldCellWeights(const double* table) const;
  // Retained-row marginal accumulators (kDropNulls bookkeeping), state
  // slot space — the vectors Emit copies into JointCounts marginals.
  const std::vector<uint64_t>& x_retained() const { return x_retained_; }
  const std::vector<uint64_t>& y_retained() const { return y_retained_; }

  // Visits every non-zero cell as fn(x_slot, y_slot, count) in canonical
  // row-major order, whichever representation is live. Public so graph
  // refreshes can fold measures over the cell stream directly instead of
  // materializing a JointCounts copy first; the visit order and the
  // integer counts are exactly Emit's.
  template <typename Fn>
  void ForEachCell(Fn fn) const {
    if (dense_) {
      for (size_t flat = 0; flat < dense_cells_.size(); ++flat) {
        uint64_t count = dense_cells_[flat];
        if (count == 0) continue;
        fn(static_cast<uint32_t>(flat / dy1_),
           static_cast<uint32_t>(flat % dy1_), count);
      }
      return;
    }
    // Base and overlay are each sorted with unique keys; a two-way merge
    // visits the union in packed-key (= canonical row-major) order, with
    // duplicate keys summed — integer adds, so the stream equals the
    // compacted array's.
    size_t a = 0;
    size_t b = 0;
    while (a < keys_.size() && b < overlay_keys_.size()) {
      if (keys_[a] < overlay_keys_[b]) {
        fn(static_cast<uint32_t>(keys_[a] >> 32),
           static_cast<uint32_t>(keys_[a] & 0xffffffffu), counts_[a]);
        ++a;
      } else if (overlay_keys_[b] < keys_[a]) {
        fn(static_cast<uint32_t>(overlay_keys_[b] >> 32),
           static_cast<uint32_t>(overlay_keys_[b] & 0xffffffffu),
           overlay_counts_[b]);
        ++b;
      } else {
        fn(static_cast<uint32_t>(keys_[a] >> 32),
           static_cast<uint32_t>(keys_[a] & 0xffffffffu),
           counts_[a] + overlay_counts_[b]);
        ++a;
        ++b;
      }
    }
    for (; a < keys_.size(); ++a) {
      fn(static_cast<uint32_t>(keys_[a] >> 32),
         static_cast<uint32_t>(keys_[a] & 0xffffffffu), counts_[a]);
    }
    for (; b < overlay_keys_.size(); ++b) {
      fn(static_cast<uint32_t>(overlay_keys_[b] >> 32),
         static_cast<uint32_t>(overlay_keys_[b] & 0xffffffffu),
         overlay_counts_[b]);
    }
  }

 private:
  // Linear merge of `n` externally sorted (key, count) cells into the
  // given sorted arrays; key_at / count_at are index -> value callables.
  template <typename KeyAt, typename CountAt>
  void MergeSorted(std::vector<uint64_t>* keys, std::vector<uint64_t>* counts,
                   size_t n, KeyAt key_at, CountAt count_at);
  // Folds the overlay into the base arrays and clears it. Called when
  // the overlay outgrows its amortization bound and before any
  // operation that needs the base arrays alone (representation change,
  // state-to-state merge).
  void Compact();

  uint32_t dx1_ = 1;
  uint32_t dy1_ = 1;
  bool dense_ = false;
  bool track_retained_ = false;
  uint64_t total_ = 0;
  std::vector<uint64_t> dense_cells_;  // dx1_ * dy1_, row-major
  std::vector<uint64_t> keys_;         // packed, ascending
  std::vector<uint64_t> counts_;       // parallel to keys_
  // Recent-batch overlay for the sparse form: sorted, unique, disjoint
  // from nothing (keys may repeat in keys_; ForEachCell sums them).
  std::vector<uint64_t> overlay_keys_;
  std::vector<uint64_t> overlay_counts_;
  // Retained-row marginals (kDropNulls bookkeeping), state-space.
  std::vector<uint64_t> x_retained_;
  std::vector<uint64_t> y_retained_;
  // Scratch for sparse merges, kept to avoid per-batch allocation.
  std::vector<uint64_t> merge_keys_;
  std::vector<uint64_t> merge_counts_;
};

// The full mergeable state of one table: all column states, all pair
// states, the dirty set, and a generation/digest chain for cache
// invalidation (stats/stat_cache.h keys fold the digest in, so an
// append can never alias a pre-append cache entry).
class TableCountState {
 public:
  TableCountState() = default;

  // Cold build: one counting pass over `table` (columns serial, pairs
  // fanned across options.num_threads). Everything starts dirty.
  static Result<TableCountState> FromTable(const Table& table,
                                           const CountStateOptions& options);

  // Folds `delta` in: O(delta rows x pairs) counting + cell merges.
  // Fails with InvalidArgument on a schema mismatch.
  Status Append(const Table& delta);

  // Folds another state in: O(state cells), no row is ever re-read.
  // Fails with InvalidArgument on schema / null-policy mismatch.
  Status Merge(const TableCountState& other);

  // Emission: the cold kernel outputs for the concatenated table.
  ColumnMarginal EmitMarginal(size_t i) const;
  void EmitJoint(size_t i, size_t j, JointCounts* out) const;  // i < j

  // Direct read access to a pair's count state (i < j), for folds that
  // stream over PairCountState::ForEachCell instead of materializing
  // EmitJoint's copy. pair_has_marginals is the kernel's per-pair
  // marginal rule re-derived from the merged null totals — exactly the
  // flag EmitJoint would stamp on the emitted JointCounts.
  const PairCountState& pair_state(size_t i, size_t j) const {
    return pairs_[PairIndex(i, j)];
  }
  bool pair_has_marginals(size_t i, size_t j) const {
    return options_.stats.null_policy == NullPolicy::kDropNulls &&
           (columns_[i].null_count() > 0 || columns_[j].null_count() > 0);
  }

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  uint64_t rows() const { return rows_; }
  const CountStateOptions& options() const { return options_; }
  const ColumnCountState& column_state(size_t i) const { return columns_[i]; }
  bool pair_dense(size_t i, size_t j) const;  // i < j

  const DirtySet& dirty() const { return dirty_; }
  void ClearDirty() { dirty_.Clear(); }

  // Monotone ingestion counter (1 after FromTable, +1 per Append/Merge)
  // and the digest chain over ingested content. Two states that saw
  // different row streams have different digests with overwhelming
  // probability; equal streams produce equal digests deterministically.
  uint64_t generation() const { return generation_; }
  uint64_t digest() const { return digest_; }

 private:
  size_t PairIndex(size_t i, size_t j) const {  // i < j
    // Strict upper triangle, row-major: row i starts after
    // i*n - i*(i+1)/2 pairs.
    size_t n = columns_.size();
    return i * n - i * (i + 1) / 2 + (j - i - 1);
  }
  // Applies the crossover rule for a pair's retained representation.
  bool WantDense(uint32_t dx1, uint32_t dy1) const;
  void ReshapePairs();

  Schema schema_;
  CountStateOptions options_;
  std::vector<ColumnCountState> columns_;
  std::vector<PairCountState> pairs_;  // strict upper triangle
  DirtySet dirty_;
  uint64_t rows_ = 0;
  uint64_t generation_ = 0;
  uint64_t digest_ = 0;
};

}  // namespace depmatch

#endif  // DEPMATCH_STATS_COUNT_STATE_H_
