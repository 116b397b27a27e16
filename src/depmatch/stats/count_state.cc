// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
// depmatch-lint: bit-identical-file
//
// Mergeable count state (see count_state.h for the bit-identity
// argument). Everything in this file is integer arithmetic; the only
// floating-point code is EmitMarginal's delegation to the canonical
// slot folds in joint_kernel.h.

#include "depmatch/stats/count_state.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "depmatch/common/thread_pool.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {
namespace {

constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;   // FNV-1a offset
constexpr uint64_t kDigestPrime = 0x100000001b3ull;       // FNV-1a prime
// Domain tags keep an Append of rows and a Merge of a state with the
// same counts on distinct digest chains.
constexpr uint64_t kTagAppend = 0x41;  // 'A'
constexpr uint64_t kTagMerge = 0x4d;   // 'M'

uint64_t MixU64(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xffu;
    h *= kDigestPrime;
  }
  return h;
}

uint64_t PackCell(uint32_t x_slot, uint32_t y_slot) {
  return (uint64_t{x_slot} << 32) | uint64_t{y_slot};
}

}  // namespace

// ---------------------------------------------------------------------------
// DirtySet

void DirtySet::Reset(size_t n) {
  n_ = n;
  columns_.assign(n, 0);
  pairs_.assign(n * (n > 0 ? n - 1 : 0) / 2, 0);
  any_ = false;
}

void DirtySet::MarkColumn(size_t i) {
  columns_[i] = 1;
  any_ = true;
}

void DirtySet::MarkPair(size_t i, size_t j) {
  if (j < i) std::swap(i, j);
  pairs_[i * n_ - i * (i + 1) / 2 + (j - i - 1)] = 1;
  any_ = true;
}

void DirtySet::MarkAll() {
  std::fill(columns_.begin(), columns_.end(), uint8_t{1});
  std::fill(pairs_.begin(), pairs_.end(), uint8_t{1});
  any_ = n_ > 0;
}

void DirtySet::Clear() {
  std::fill(columns_.begin(), columns_.end(), uint8_t{0});
  std::fill(pairs_.begin(), pairs_.end(), uint8_t{0});
  any_ = false;
}

bool DirtySet::pair(size_t i, size_t j) const {
  if (j < i) std::swap(i, j);
  return pairs_[i * n_ - i * (i + 1) / 2 + (j - i - 1)] != 0;
}

size_t DirtySet::CountDirtyColumns() const {
  size_t count = 0;
  for (uint8_t d : columns_) count += d;
  return count;
}

size_t DirtySet::CountDirtyPairs() const {
  size_t count = 0;
  for (uint8_t d : pairs_) count += d;
  return count;
}

// ---------------------------------------------------------------------------
// ColumnCountState

ColumnCountState ColumnCountState::FromColumn(const Column& column) {
  ColumnCountState state;
  state.type_ = column.type();
  state.dictionary_ = column.dictionary();
  state.index_.reserve(state.dictionary_.size());
  for (size_t k = 0; k < state.dictionary_.size(); ++k) {
    state.index_.emplace(state.dictionary_[k], static_cast<uint32_t>(k + 1));
  }
  state.slot_counts_.assign(state.dictionary_.size() + 1, 0);
  for (int32_t code : column.codes()) {
    ++state.slot_counts_[static_cast<size_t>(code + 1)];
  }
  state.rows_ = column.size();
  return state;
}

uint32_t ColumnCountState::InternValue(const Value& value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  dictionary_.push_back(value);
  uint32_t slot = static_cast<uint32_t>(dictionary_.size());
  index_.emplace(dictionary_.back(), slot);
  return slot;
}

ColumnCountState::BatchDelta ColumnCountState::Append(const Column& delta) {
  // Interning the delta's first-appearance dictionary in order gives
  // new values exactly the slots a re-encode of the concatenated rows
  // would assign (count_state.h, "Slot numbering").
  std::vector<uint32_t> trans(delta.dictionary().size() + 1, 0);
  for (size_t k = 0; k < delta.dictionary().size(); ++k) {
    trans[k + 1] = InternValue(delta.dictionary()[k]);
  }
  slot_counts_.resize(dictionary_.size() + 1, 0);

  BatchDelta out;
  out.slots.resize(delta.size());
  out.slot_counts.assign(slot_counts_.size(), 0);
  out.null_count = delta.null_count();
  const std::vector<int32_t>& codes = delta.codes();
  for (size_t r = 0; r < codes.size(); ++r) {
    uint32_t slot = trans[static_cast<size_t>(codes[r] + 1)];
    out.slots[r] = slot;
    ++out.slot_counts[slot];
    ++slot_counts_[slot];
  }
  rows_ += delta.size();
  return out;
}

std::vector<uint32_t> ColumnCountState::MergeFrom(const ColumnCountState& other) {
  std::vector<uint32_t> trans(other.dictionary_.size() + 1, 0);
  for (size_t k = 0; k < other.dictionary_.size(); ++k) {
    trans[k + 1] = InternValue(other.dictionary_[k]);
  }
  slot_counts_.resize(dictionary_.size() + 1, 0);
  for (size_t s = 0; s < trans.size(); ++s) {
    slot_counts_[trans[s]] += other.slot_counts_[s];
  }
  rows_ += other.rows_;
  return trans;
}

ColumnMarginal ColumnCountState::EmitMarginal(NullPolicy policy) const {
  ColumnMarginal marginal;
  marginal.slots = slot_counts_;
  if (policy == NullPolicy::kDropNulls) {
    marginal.slots[0] = 0;
    marginal.total = rows_ - slot_counts_[0];
  } else {
    marginal.total = rows_;
  }
  marginal.support = SupportFromSlots(marginal.slots);
  marginal.entropy = EntropyFromSlots(marginal.slots, marginal.total);
  return marginal;
}

// ---------------------------------------------------------------------------
// PairCountState

template <typename KeyAt, typename CountAt>
void PairCountState::MergeSorted(std::vector<uint64_t>* keys,
                                 std::vector<uint64_t>* counts, size_t n,
                                 KeyAt key_at, CountAt count_at) {
  if (n == 0) return;
  merge_keys_.clear();
  merge_counts_.clear();
  merge_keys_.reserve(keys->size() + n);
  merge_counts_.reserve(keys->size() + n);
  size_t a = 0;
  size_t b = 0;
  while (a < keys->size() && b < n) {
    uint64_t kb = key_at(b);
    if ((*keys)[a] < kb) {
      merge_keys_.push_back((*keys)[a]);
      merge_counts_.push_back((*counts)[a]);
      ++a;
    } else if (kb < (*keys)[a]) {
      merge_keys_.push_back(kb);
      merge_counts_.push_back(count_at(b));
      ++b;
    } else {
      merge_keys_.push_back((*keys)[a]);
      merge_counts_.push_back((*counts)[a] + count_at(b));
      ++a;
      ++b;
    }
  }
  for (; a < keys->size(); ++a) {
    merge_keys_.push_back((*keys)[a]);
    merge_counts_.push_back((*counts)[a]);
  }
  for (; b < n; ++b) {
    merge_keys_.push_back(key_at(b));
    merge_counts_.push_back(count_at(b));
  }
  keys->swap(merge_keys_);
  counts->swap(merge_counts_);
}

void PairCountState::Compact() {
  if (overlay_keys_.empty()) return;
  MergeSorted(
      &keys_, &counts_, overlay_keys_.size(),
      [this](size_t i) { return overlay_keys_[i]; },
      [this](size_t i) { return overlay_counts_[i]; });
  overlay_keys_.clear();
  overlay_counts_.clear();
}

void PairCountState::Reshape(uint32_t dx1, uint32_t dy1, bool dense,
                             bool track_retained) {
  if (track_retained) {
    x_retained_.resize(dx1, 0);
    y_retained_.resize(dy1, 0);
  }
  track_retained_ = track_retained;
  if (dense && dense_) {
    if (dx1 != dx1_ || dy1 != dy1_) {
      // Re-layout the row-major matrix into the grown dims.
      std::vector<uint64_t> grown(size_t{dx1} * dy1, 0);
      for (uint32_t sx = 0; sx < dx1_; ++sx) {
        for (uint32_t sy = 0; sy < dy1_; ++sy) {
          grown[size_t{sx} * dy1 + sy] = dense_cells_[size_t{sx} * dy1_ + sy];
        }
      }
      dense_cells_ = std::move(grown);
    }
  } else if (dense && !dense_) {
    std::vector<uint64_t> cells(size_t{dx1} * dy1, 0);
    ForEachCell([&cells, dy1](uint32_t sx, uint32_t sy, uint64_t count) {
      cells[size_t{sx} * dy1 + sy] = count;
    });
    dense_cells_ = std::move(cells);
    keys_.clear();
    counts_.clear();
    overlay_keys_.clear();
    overlay_counts_.clear();
  } else if (!dense && dense_) {
    // Flat ascending order IS packed-key ascending order, so the sparse
    // arrays come out sorted for free.
    keys_.clear();
    counts_.clear();
    for (size_t flat = 0; flat < dense_cells_.size(); ++flat) {
      if (dense_cells_[flat] == 0) continue;
      keys_.push_back(PackCell(static_cast<uint32_t>(flat / dy1_),
                               static_cast<uint32_t>(flat % dy1_)));
      counts_.push_back(dense_cells_[flat]);
    }
    dense_cells_.clear();
    dense_cells_.shrink_to_fit();
  }
  // Sparse -> sparse needs nothing: packed keys are dim-independent.
  dx1_ = dx1;
  dy1_ = dy1;
  dense_ = dense;
}

void PairCountState::Apply(const JointCounts& batch,
                           const std::vector<uint64_t>& batch_x,
                           const std::vector<uint64_t>& batch_y) {
  total_ += batch.total;
  if (dense_) {
    for (size_t i = 0; i < batch.cell_counts.size(); ++i) {
      dense_cells_[size_t{batch.cell_x_slots[i]} * dy1_ +
                   batch.cell_y_slots[i]] += batch.cell_counts[i];
    }
  } else {
    // Kernel cells arrive in canonical row-major order, which is packed-
    // key ascending order: a single linear merge into the overlay, which
    // is O(overlay + batch), never O(base). The overlay folds into the
    // base only when it outgrows the amortization bound below, so a
    // stream of small appends costs O(delta) each, amortized.
    MergeSorted(
        &overlay_keys_, &overlay_counts_, batch.cell_counts.size(),
        [&batch](size_t i) {
          return PackCell(batch.cell_x_slots[i], batch.cell_y_slots[i]);
        },
        [&batch](size_t i) { return batch.cell_counts[i]; });
    if (overlay_keys_.size() * 16 >= keys_.size() + 4096) Compact();
  }
  if (track_retained_) {
    // Per-pair retained marginals: the kernel's when the batch had nulls
    // to drop, else the batch's own per-column counts (every row
    // retained, and slot 0 is zero because the batch had no nulls).
    const std::vector<uint64_t>& from_x =
        batch.has_marginals ? batch.x_marginals : batch_x;
    const std::vector<uint64_t>& from_y =
        batch.has_marginals ? batch.y_marginals : batch_y;
    for (size_t s = 0; s < from_x.size(); ++s) x_retained_[s] += from_x[s];
    for (size_t s = 0; s < from_y.size(); ++s) y_retained_[s] += from_y[s];
  }
}

void PairCountState::MergeTranslated(const PairCountState& other,
                                     const std::vector<uint32_t>& trans_x,
                                     const std::vector<uint32_t>& trans_y) {
  total_ += other.total_;
  if (track_retained_) {
    for (size_t s = 0; s < other.x_retained_.size(); ++s) {
      x_retained_[trans_x[s]] += other.x_retained_[s];
    }
    for (size_t s = 0; s < other.y_retained_.size(); ++s) {
      y_retained_[trans_y[s]] += other.y_retained_[s];
    }
  }
  if (dense_) {
    other.ForEachCell([&](uint32_t sx, uint32_t sy, uint64_t count) {
      dense_cells_[size_t{trans_x[sx]} * dy1_ + trans_y[sy]] += count;
    });
    return;
  }
  // Translation is injective but not order-preserving (the receiving
  // dictionary interleaves both sides' values), so translated keys must
  // be re-sorted before the linear merge. Keys stay unique. State-to-
  // state merges are O(state) by contract, so both sides fold through
  // the base arrays (the receiver compacts its overlay first).
  Compact();
  std::vector<std::pair<uint64_t, uint64_t>> cells;
  cells.reserve(other.num_cells());
  other.ForEachCell([&](uint32_t sx, uint32_t sy, uint64_t count) {
    cells.emplace_back(PackCell(trans_x[sx], trans_y[sy]), count);
  });
  std::sort(cells.begin(), cells.end());
  MergeSorted(
      &keys_, &counts_, cells.size(),
      [&cells](size_t i) { return cells[i].first; },
      [&cells](size_t i) { return cells[i].second; });
}

void PairCountState::Emit(JointCounts* out, bool has_marginals) const {
  out->total = total_;
  out->cell_x_slots.clear();
  out->cell_y_slots.clear();
  out->cell_counts.clear();
  ForEachCell([out](uint32_t sx, uint32_t sy, uint64_t count) {
    out->cell_x_slots.push_back(sx);
    out->cell_y_slots.push_back(sy);
    out->cell_counts.push_back(count);
  });
  out->has_marginals = has_marginals;
  if (has_marginals) {
    out->x_marginals = x_retained_;
    out->y_marginals = y_retained_;
  } else {
    out->x_marginals.clear();
    out->y_marginals.clear();
  }
  out->used_dense = dense_;
}

double PairCountState::FoldCellWeights(const double* table) const {
  double weighted = 0.0;
  if (dense_) {
    for (uint64_t count : dense_cells_) {
      weighted += CellWeight(table, count);
    }
    return weighted;
  }
  // Walk the base/overlay union in key order, but sum each base run
  // between consecutive overlay keys in a tight counts-only loop (the
  // run boundary comes from one binary search, so base keys are never
  // compared cell by cell).
  size_t a = 0;
  for (size_t b = 0; b < overlay_keys_.size(); ++b) {
    uint64_t kb = overlay_keys_[b];
    size_t run_end = static_cast<size_t>(
        std::lower_bound(keys_.begin() + static_cast<ptrdiff_t>(a),
                         keys_.end(), kb) -
        keys_.begin());
    for (; a < run_end; ++a) weighted += CellWeight(table, counts_[a]);
    if (a < keys_.size() && keys_[a] == kb) {
      weighted += CellWeight(table, counts_[a] + overlay_counts_[b]);
      ++a;
    } else {
      weighted += CellWeight(table, overlay_counts_[b]);
    }
  }
  for (; a < keys_.size(); ++a) weighted += CellWeight(table, counts_[a]);
  return weighted;
}

size_t PairCountState::num_cells() const {
  if (!dense_) {
    // Union size of two sorted unique-key arrays: the overlay is small,
    // so count its keys already present in the base by a forward-moving
    // binary search instead of a full merge walk.
    size_t shared = 0;
    size_t pos = 0;
    for (uint64_t key : overlay_keys_) {
      pos = static_cast<size_t>(
          std::lower_bound(keys_.begin() + static_cast<ptrdiff_t>(pos),
                           keys_.end(), key) -
          keys_.begin());
      if (pos < keys_.size() && keys_[pos] == key) ++shared;
    }
    return keys_.size() + overlay_keys_.size() - shared;
  }
  size_t count = 0;
  for (uint64_t cell : dense_cells_) count += cell != 0 ? 1 : 0;
  return count;
}

// ---------------------------------------------------------------------------
// TableCountState

bool TableCountState::WantDense(uint32_t dx1, uint32_t dy1) const {
  CodeView x{nullptr, static_cast<size_t>(rows_), dx1, 0};
  CodeView y{nullptr, static_cast<size_t>(rows_), dy1, 0};
  if (!JointCountKernel::UseDense(x, y, options_.stats)) return false;
  // The kernels' budget admits one scratch matrix per worker; the state
  // holds every pair's matrix at once, so a tighter ceiling applies.
  return uint64_t{dx1} * uint64_t{dy1} <= options_.dense_state_cell_budget;
}

void TableCountState::ReshapePairs() {
  const bool track_retained =
      options_.stats.null_policy == NullPolicy::kDropNulls;
  size_t n = columns_.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      uint32_t dx1 = columns_[i].num_slots();
      uint32_t dy1 = columns_[j].num_slots();
      pairs_[PairIndex(i, j)].Reshape(dx1, dy1, WantDense(dx1, dy1),
                                      track_retained);
    }
  }
}

Result<TableCountState> TableCountState::FromTable(
    const Table& table, const CountStateOptions& options) {
  TableCountState state;
  state.schema_ = table.schema();
  state.options_ = options;
  state.rows_ = table.num_rows();
  size_t n = table.num_attributes();
  state.columns_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    state.columns_.push_back(ColumnCountState::FromColumn(table.column(i)));
  }
  state.pairs_.resize(n * (n > 0 ? n - 1 : 0) / 2);
  state.dirty_.Reset(n);
  state.dirty_.MarkAll();
  state.ReshapePairs();

  // One counting pass: the whole table is the first "batch". Each column
  // is slot-encoded once and shared by every pair's kernel call.
  std::vector<EncodedColumn> encoded;
  encoded.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    encoded.push_back(EncodedColumn::FromColumn(table.column(i)));
  }
  std::vector<std::pair<size_t, size_t>> pair_list;
  pair_list.reserve(state.pairs_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pair_list.emplace_back(i, j);
  }
  size_t workers = std::max<size_t>(1, options.num_threads);
  std::vector<JointCountKernel> kernels(workers);
  ThreadPool::ParallelForWithWorker(
      options.num_threads, pair_list.size(), [&](size_t worker, size_t p) {
        auto [i, j] = pair_list[p];
        const JointCounts& counts =
            kernels[worker].Count(CodeViewOf(encoded[i]),
                                  CodeViewOf(encoded[j]), state.options_.stats);
        state.pairs_[p].Apply(counts, state.columns_[i].slot_counts(),
                              state.columns_[j].slot_counts());
      });

  state.generation_ = 1;
  uint64_t digest = MixU64(kDigestSeed, kTagAppend);
  digest = MixU64(digest, state.rows_);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t slot : encoded[i].slots()) digest = MixU64(digest, slot);
  }
  state.digest_ = digest;
  return state;
}

Status TableCountState::Append(const Table& delta) {
  if (!(delta.schema() == schema_)) {
    return InvalidArgumentError(
        "Append: delta schema does not match the state's schema");
  }
  if (delta.num_rows() == 0) return OkStatus();
  size_t n = columns_.size();
  const bool drop = options_.stats.null_policy == NullPolicy::kDropNulls;

  std::vector<uint64_t> prev_nulls(n);
  for (size_t i = 0; i < n; ++i) prev_nulls[i] = columns_[i].null_count();

  // Column pass (serial: dictionary interning orders must be the
  // concatenation order, and n is small next to rows x pairs).
  std::vector<ColumnCountState::BatchDelta> deltas(n);
  for (size_t i = 0; i < n; ++i) {
    deltas[i] = columns_[i].Append(delta.column(i));
  }
  rows_ += delta.num_rows();
  ReshapePairs();

  // Pair pass: count the delta only — O(delta rows) per pair — and fold
  // the canonical cells into each pair's state.
  std::vector<std::pair<size_t, size_t>> pair_list;
  pair_list.reserve(pairs_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pair_list.emplace_back(i, j);
  }
  std::vector<uint64_t> delta_totals(pair_list.size(), 0);
  size_t workers = std::max<size_t>(1, options_.num_threads);
  std::vector<JointCountKernel> kernels(workers);
  ThreadPool::ParallelForWithWorker(
      options_.num_threads, pair_list.size(), [&](size_t worker, size_t p) {
        auto [i, j] = pair_list[p];
        CodeView x{deltas[i].slots.data(), deltas[i].slots.size(),
                   columns_[i].num_slots(), deltas[i].null_count};
        CodeView y{deltas[j].slots.data(), deltas[j].slots.size(),
                   columns_[j].num_slots(), deltas[j].null_count};
        const JointCounts& counts =
            kernels[worker].Count(x, y, options_.stats);
        delta_totals[p] = counts.total;
        pairs_[p].Apply(counts, deltas[i].slot_counts, deltas[j].slot_counts);
      });

  if (!drop) {
    // Every total grew: every probability in the table changed.
    dirty_.MarkAll();
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (delta.num_rows() - deltas[i].null_count > 0) dirty_.MarkColumn(i);
    }
    for (size_t p = 0; p < pair_list.size(); ++p) {
      auto [i, j] = pair_list[p];
      bool x_flip = prev_nulls[i] == 0 && deltas[i].null_count > 0;
      bool y_flip = prev_nulls[j] == 0 && deltas[j].null_count > 0;
      if (delta_totals[p] > 0 || x_flip || y_flip) dirty_.MarkPair(i, j);
    }
  }

  ++generation_;
  uint64_t digest = MixU64(digest_, kTagAppend);
  digest = MixU64(digest, delta.num_rows());
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t slot : deltas[i].slots) digest = MixU64(digest, slot);
  }
  digest_ = digest;
  return OkStatus();
}

Status TableCountState::Merge(const TableCountState& other) {
  if (!(other.schema_ == schema_)) {
    return InvalidArgumentError(
        "Merge: states were built over different schemas");
  }
  if (other.options_.stats.null_policy != options_.stats.null_policy) {
    return InvalidArgumentError(
        "Merge: states were counted under different null policies");
  }
  if (other.rows_ == 0) return OkStatus();
  size_t n = columns_.size();
  const bool drop = options_.stats.null_policy == NullPolicy::kDropNulls;

  std::vector<uint64_t> prev_nulls(n);
  for (size_t i = 0; i < n; ++i) prev_nulls[i] = columns_[i].null_count();

  std::vector<std::vector<uint32_t>> trans(n);
  for (size_t i = 0; i < n; ++i) {
    trans[i] = columns_[i].MergeFrom(other.columns_[i]);
  }
  rows_ += other.rows_;
  ReshapePairs();

  std::vector<std::pair<size_t, size_t>> pair_list;
  pair_list.reserve(pairs_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pair_list.emplace_back(i, j);
  }
  ThreadPool::ParallelForWithWorker(
      options_.num_threads, pair_list.size(), [&](size_t, size_t p) {
        auto [i, j] = pair_list[p];
        pairs_[p].MergeTranslated(other.pairs_[p], trans[i], trans[j]);
      });

  if (!drop) {
    dirty_.MarkAll();
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (other.rows_ - other.columns_[i].null_count() > 0) {
        dirty_.MarkColumn(i);
      }
    }
    for (size_t p = 0; p < pair_list.size(); ++p) {
      auto [i, j] = pair_list[p];
      bool x_flip = prev_nulls[i] == 0 && other.columns_[i].null_count() > 0;
      bool y_flip = prev_nulls[j] == 0 && other.columns_[j].null_count() > 0;
      if (other.pairs_[p].total() > 0 || x_flip || y_flip) {
        dirty_.MarkPair(i, j);
      }
    }
  }

  ++generation_;
  digest_ = MixU64(MixU64(digest_, kTagMerge), other.digest_);
  return OkStatus();
}

ColumnMarginal TableCountState::EmitMarginal(size_t i) const {
  return columns_[i].EmitMarginal(options_.stats.null_policy);
}

void TableCountState::EmitJoint(size_t i, size_t j, JointCounts* out) const {
  pairs_[PairIndex(i, j)].Emit(out, pair_has_marginals(i, j));
}

bool TableCountState::pair_dense(size_t i, size_t j) const {
  return pairs_[PairIndex(i, j)].dense();
}

}  // namespace depmatch
