// depmatch-lint: bit-identical-file
// The slot arrays and first-appearance remaps produced here feed the
// bit-identical statistics kernels: MaterializeSelectionCodes must assign
// slots in exactly the order TableBuilder interns values when the same
// rows are materialized, and nothing here may reorder rows or slots.
#include "depmatch/table/encoded_column.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "depmatch/common/string_util.h"

namespace depmatch {
namespace {

// Process-unique snapshot ids for cache keying. Plain integer atomic; no
// floating accumulation.
std::atomic<uint64_t> g_next_encoded_table_id{1};

constexpr uint32_t kUnmapped = 0xffffffffu;

}  // namespace

EncodedColumn EncodedColumn::FromColumn(const Column& column) {
  EncodedColumn encoded;
  encoded.slots_.reserve(column.size());
  for (int32_t code : column.codes()) {
    encoded.slots_.push_back(static_cast<uint32_t>(code + 1));
  }
  encoded.distinct_count_ = column.distinct_count();
  encoded.null_count_ = column.null_count();
  return encoded;
}

std::shared_ptr<const EncodedTable> EncodedTable::FromTable(
    const Table& table) {
  auto encoded = std::make_shared<EncodedTable>();
  encoded->id_ = g_next_encoded_table_id.fetch_add(1);
  encoded->schema_ = table.schema();
  encoded->num_rows_ = table.num_rows();
  encoded->columns_.reserve(table.num_attributes());
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    encoded->columns_.push_back(EncodedColumn::FromColumn(table.column(c)));
  }
  return encoded;
}

SelectionCodes MaterializeSelectionCodes(const EncodedColumn& column,
                                         const std::vector<uint32_t>& rows) {
  SelectionCodes out;
  out.slots.reserve(rows.size());
  // remap[base_slot] = selection slot, assigned in first-appearance order
  // over the selection — the order TableBuilder interns values when the
  // same rows are materialized, which is what makes the view path and the
  // materialized path bit-identical downstream. Null (slot 0) is fixed.
  std::vector<uint32_t> remap(column.num_slots(), kUnmapped);
  remap[0] = 0;
  uint32_t next_slot = 1;
  const std::vector<uint32_t>& base_slots = column.slots();
  for (uint32_t row : rows) {
    uint32_t base_slot = base_slots[row];
    uint32_t& mapped = remap[base_slot];
    if (mapped == kUnmapped) mapped = next_slot++;
    if (base_slot == 0) ++out.null_count;
    out.slots.push_back(mapped);
  }
  out.num_slots = next_slot;
  return out;
}

uint64_t RowSelectionDigest(const std::vector<uint32_t>& rows) {
  // FNV-1a over the index stream. The statistics cache keys on
  // (digest, length) — content-based so independently built but equal
  // selections share entries.
  uint64_t hash = kFullRowsDigest;
  for (uint32_t row : rows) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (row >> shift) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

EncodedTableView::EncodedTableView(std::shared_ptr<const EncodedTable> base)
    : base_(std::move(base)) {
  columns_.resize(base_->num_attributes());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c] = c;
}

EncodedTableView EncodedTableView::FromTable(const Table& table) {
  return EncodedTableView(EncodedTable::FromTable(table));
}

EncodedTableView EncodedTableView::WithGeneration(uint64_t generation) const {
  EncodedTableView view = *this;
  view.generation_ = generation;
  return view;
}

Result<EncodedTableView> EncodedTableView::Project(
    const std::vector<size_t>& indices) const {
  EncodedTableView view = *this;
  view.columns_.clear();
  view.columns_.reserve(indices.size());
  for (size_t index : indices) {
    if (index >= columns_.size()) {
      return OutOfRangeError(StrFormat(
          "view column index %zu out of range (%zu columns)", index,
          columns_.size()));
    }
    view.columns_.push_back(columns_[index]);
  }
  return view;
}

Result<EncodedTableView> EncodedTableView::SelectRows(
    const std::vector<uint32_t>& rows) const {
  auto base_rows = std::make_shared<std::vector<uint32_t>>();
  base_rows->reserve(rows.size());
  size_t limit = num_rows();
  for (uint32_t row : rows) {
    if (row >= limit) {
      return OutOfRangeError(StrFormat(
          "view row index %u out of range (%zu rows)", row, limit));
    }
    base_rows->push_back(rows_ == nullptr ? row : (*rows_)[row]);
  }
  EncodedTableView view = *this;
  view.row_digest_ = RowSelectionDigest(*base_rows);
  view.rows_ = std::move(base_rows);
  return view;
}

EncodedTableView EncodedTableView::Head(size_t n) const {
  size_t count = std::min(n, num_rows());
  std::vector<uint32_t> rows(count);
  for (size_t i = 0; i < count; ++i) rows[i] = static_cast<uint32_t>(i);
  Result<EncodedTableView> view = SelectRows(rows);
  return std::move(view).value();
}

EncodedTableView EncodedTableView::Sample(size_t n, Rng& rng) const {
  // Same draw as table_ops' SampleRows: k distinct indices in random
  // order, so a shared rng state selects identical rows on both paths.
  size_t count = std::min(n, num_rows());
  std::vector<size_t> drawn = rng.SampleWithoutReplacement(num_rows(), count);
  std::vector<uint32_t> rows(drawn.size());
  for (size_t i = 0; i < drawn.size(); ++i) {
    rows[i] = static_cast<uint32_t>(drawn[i]);
  }
  Result<EncodedTableView> view = SelectRows(rows);
  return std::move(view).value();
}

}  // namespace depmatch
