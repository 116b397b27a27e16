// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Encoded column store: immutable slot-encoded snapshots of a Table plus
// zero-copy views over them.
//
// The experiment pipeline (Figures 4-9) rebuilds dependency graphs over
// many overlapping slices of the same base tables — random attribute
// projections, row samples, range partitions. Materializing each slice as
// a fresh Table re-interns every cell through the Value dictionary hash,
// which dominates end-to-end cost on opaque string data. An EncodedTable
// freezes the base table's dictionary encoding once; an EncodedTableView
// then describes any (column subset, row subset) slice as indices into the
// shared base — no Value is ever copied or re-hashed.
//
// Representation: each EncodedColumn stores one dense uint32_t *slot*
// array, where slot = dictionary code + 1 and slot 0 is the null symbol —
// the same convention the joint-count kernels (stats/joint_kernel.h) use
// internally, so the statistics layer consumes these arrays directly.
//
// Equivalence contract (asserted bit-for-bit by the cache-correctness
// tests):
//   * A view with no row selection reuses the base slot arrays unchanged,
//     so BuildDependencyGraph(view) equals BuildDependencyGraph(table)
//     exactly.
//   * A view with a row selection yields, per column, the gathered slots
//     remapped to first-appearance order (MaterializeSelectionCodes) —
//     exactly the codes TableBuilder would intern when materializing the
//     same rows with SelectRows — so the view path and the
//     materialize-then-build path produce bit-identical graphs.

#ifndef DEPMATCH_TABLE_ENCODED_COLUMN_H_
#define DEPMATCH_TABLE_ENCODED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/common/status.h"
#include "depmatch/table/table.h"

namespace depmatch {

// One frozen column: its dense slot array. The values behind the slots
// stay in the source Column; statistics need only the slots.
class EncodedColumn {
 public:
  // Slot-encodes `column` (slot = code + 1; null = 0). The only place a
  // Column becomes slots.
  static EncodedColumn FromColumn(const Column& column);

  size_t size() const { return slots_.size(); }
  // Number of distinct non-null values in the source column's dictionary.
  size_t distinct_count() const { return distinct_count_; }
  // distinct_count() + 1: the marginal slot-array length (slot 0 = null).
  uint32_t num_slots() const {
    return static_cast<uint32_t>(distinct_count_ + 1);
  }
  uint64_t null_count() const { return null_count_; }

  const std::vector<uint32_t>& slots() const { return slots_; }

 private:
  std::vector<uint32_t> slots_;
  size_t distinct_count_ = 0;
  uint64_t null_count_ = 0;
};

// Immutable snapshot of a whole table's encodings. Construct once per base
// table and share via shared_ptr; every view holds the snapshot alive.
class EncodedTable {
 public:
  // Encodes every column of `table`. O(cells) once; afterwards all slicing
  // is index arithmetic.
  static std::shared_ptr<const EncodedTable> FromTable(const Table& table);

  // Process-unique id, assigned at construction. Statistics caches key on
  // it, so two snapshots of equal content do not share cache entries —
  // snapshot once per base table and reuse the pointer.
  uint64_t id() const { return id_; }

  const Schema& schema() const { return schema_; }
  size_t num_attributes() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  const EncodedColumn& column(size_t i) const { return columns_[i]; }

 private:
  uint64_t id_ = 0;
  Schema schema_;
  std::vector<EncodedColumn> columns_;
  size_t num_rows_ = 0;
};

// Gathered-and-remapped codes of one column restricted to a row selection:
// slots renumbered to first-appearance order over the selection, which is
// exactly the encoding TableBuilder produces when the same rows are
// materialized. Null stays slot 0.
struct SelectionCodes {
  std::vector<uint32_t> slots;
  // Measured on the selection: distinct + 1 (slot 0 = null).
  uint32_t num_slots = 1;
  uint64_t null_count = 0;
};

// Computes SelectionCodes for base column `column` over `rows` (base-table
// row indices; repeats allowed, order preserved). O(selection + distinct).
SelectionCodes MaterializeSelectionCodes(const EncodedColumn& column,
                                         const std::vector<uint32_t>& rows);

// Digest of a row selection, used (together with the selection length) as
// a statistics-cache key component. Content-based, so two independently
// constructed but equal selections share cache entries.
uint64_t RowSelectionDigest(const std::vector<uint32_t>& rows);
// Digest reserved for "all rows" (no selection).
inline constexpr uint64_t kFullRowsDigest = 0xcbf29ce484222325ULL;

// A zero-copy slice of an EncodedTable: an ordered column subset plus an
// optional shared row selection. Copying a view copies two small vectors
// of indices at most; the base encoding and the row selection are shared.
class EncodedTableView {
 public:
  EncodedTableView() = default;

  // Whole-table view (all columns, all rows).
  explicit EncodedTableView(std::shared_ptr<const EncodedTable> base);
  // Convenience: snapshot `table` and view all of it.
  static EncodedTableView FromTable(const Table& table);

  bool valid() const { return base_ != nullptr; }
  const EncodedTable& base() const { return *base_; }
  const std::shared_ptr<const EncodedTable>& base_ptr() const {
    return base_;
  }

  size_t num_attributes() const { return columns_.size(); }
  size_t num_rows() const {
    return rows_ == nullptr ? base_->num_rows() : rows_->size();
  }
  const std::string& attribute_name(size_t i) const {
    return base_->schema().attribute(columns_[i]).name;
  }
  // Base-table column index of view column `i`.
  size_t base_column(size_t i) const { return columns_[i]; }
  const EncodedColumn& column(size_t i) const {
    return base_->column(columns_[i]);
  }

  bool has_row_selection() const { return rows_ != nullptr; }
  // Base-table row indices of the selection. Precondition:
  // has_row_selection().
  const std::vector<uint32_t>& row_selection() const { return *rows_; }
  const std::shared_ptr<const std::vector<uint32_t>>& row_selection_ptr()
      const {
    return rows_;
  }
  // Content digest of the selection (kFullRowsDigest when none).
  uint64_t row_digest() const { return row_digest_; }

  // Count-state generation digest this view represents (the digest chain
  // of stats/count_state.h, or any caller-chosen epoch). Folded into
  // every StatCache key, so a view over appended data can never alias
  // entries cached before the append — the append changed the digest.
  // 0 (default) = the un-tagged snapshot epoch.
  uint64_t generation() const { return generation_; }
  // Copy of this view tagged with `generation`; derived views (Project /
  // SelectRows / Head / Sample) inherit the tag.
  EncodedTableView WithGeneration(uint64_t generation) const;

  // View over columns `indices` (view-relative, order preserved). Fails on
  // out-of-range indices. Row selection carries over.
  Result<EncodedTableView> Project(const std::vector<size_t>& indices) const;

  // View over rows `rows` (view-relative; repeats allowed, order
  // preserved). Composes with an existing selection. Fails on
  // out-of-range indices.
  Result<EncodedTableView> SelectRows(const std::vector<uint32_t>& rows) const;

  // First min(n, num_rows()) rows.
  EncodedTableView Head(size_t n) const;

  // Uniform random selection of min(n, num_rows()) distinct rows in random
  // order — draws from `rng` exactly like table_ops' SampleRows, so the
  // same rng state selects the same rows.
  EncodedTableView Sample(size_t n, Rng& rng) const;

 private:
  std::shared_ptr<const EncodedTable> base_;
  std::vector<size_t> columns_;
  // nullptr = all base rows, in base order.
  std::shared_ptr<const std::vector<uint32_t>> rows_;
  uint64_t row_digest_ = kFullRowsDigest;
  uint64_t generation_ = 0;
};

}  // namespace depmatch

#endif  // DEPMATCH_TABLE_ENCODED_COLUMN_H_
