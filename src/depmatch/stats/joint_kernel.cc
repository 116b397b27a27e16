// depmatch-lint: bit-identical-file
// Results are bit-identical at any thread count: every floating-point
// sum in this file accumulates in a fixed, thread-independent order.
// Do not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions); the
// depmatch_analyze bit-identical rule and the tsan_stress tests enforce
// and exercise this contract.
#include "depmatch/stats/joint_kernel.h"

#include <algorithm>
#include <cmath>

#include "depmatch/common/logging.h"

namespace depmatch {
namespace {

// Strategy thresholds for JointKernelDispatch::kAuto.
//
// Lane count: compile-time, matched to the widest vector unit the build
// targets so the merge pass (a strided integer reduction) fills whole
// registers. The increments themselves stay scalar — independent lanes
// buy instruction-level parallelism on skewed data, not gather/scatter.
#if defined(__AVX512F__) || defined(__AVX2__)
inline constexpr size_t kDenseLaneCount = 8;
#else
inline constexpr size_t kDenseLaneCount = 4;
#endif
// Above this many cells the flat matrix stops fitting in L2 and scatter
// increments degrade to cache misses; the sort-based strategy (pure
// sequential passes, no matrix) takes over.
inline constexpr size_t kSortStrategyMinCells = size_t{1} << 17;

// The cell budget the dense/sparse crossover compares against; the
// authoritative statement of the rule (static budget, auto-raise shape
// allowance, budget-0 semantics) is the crossover comment block in
// histogram.h.
size_t EffectiveDenseBudget(size_t rows, const StatsOptions& options) {
  size_t budget = options.dense_cell_budget;
  if (budget == 0 || !options.auto_dense_budget) return budget;
  size_t by_rows = rows >= kDenseAutoMaxCells / kDenseAutoCellsPerRow
                       ? kDenseAutoMaxCells
                       : rows * kDenseAutoCellsPerRow;
  return std::max(budget, by_rows);
}

bool UseDenseForShape(size_t dx1, size_t dy1, size_t rows,
                      const StatsOptions& options) {
  size_t budget = EffectiveDenseBudget(rows, options);
  if (budget == 0) return false;
  // Overflow-safe form of dx1 * dy1 <= budget.
  return dx1 <= budget / dy1;
}

}  // namespace

CodeView CodeViewOf(const EncodedColumn& column) {
  return CodeView{column.slots().data(), column.size(), column.num_slots(),
                  column.null_count()};
}

ColumnMarginal ComputeColumnMarginal(const CodeView& codes,
                                     NullPolicy policy) {
  ColumnMarginal m;
  m.slots.assign(codes.num_slots, 0);
  const bool drop = (policy == NullPolicy::kDropNulls);
  for (size_t r = 0; r < codes.size; ++r) {
    uint32_t slot = codes.slots[r];
    if (slot == 0 && drop) continue;
    ++m.slots[slot];
    ++m.total;
  }
  m.support = SupportFromSlots(m.slots);
  m.entropy = EntropyFromSlots(m.slots, m.total);
  return m;
}

bool JointCountKernel::UseDense(const CodeView& x, const CodeView& y,
                                const StatsOptions& options) {
  return UseDenseForShape(x.num_slots, y.num_slots, x.size, options);
}

const JointCounts& JointCountKernel::Count(const CodeView& x,
                                           const CodeView& y,
                                           const StatsOptions& options) {
  DEPMATCH_CHECK_EQ(x.size, y.size);
  counts_.total = 0;
  counts_.cell_x_slots.clear();
  counts_.cell_y_slots.clear();
  counts_.cell_counts.clear();
  counts_.has_marginals = false;
  counts_.x_marginals.clear();
  counts_.y_marginals.clear();

  counts_.used_dense = UseDense(x, y, options);
  if (counts_.used_dense) {
    CountDense(x.slots, y.slots, x.size, x.num_slots, y.num_slots, options);
  } else {
    CountSparse(x.slots, y.slots, x.size, options);
  }

  // The retained-row set depends on the pair only under kDropNulls with
  // nulls actually present; only then are per-pair marginals meaningful
  // (otherwise each column's pair-invariant ColumnMarginal applies).
  if (options.null_policy == NullPolicy::kDropNulls &&
      (x.null_count > 0 || y.null_count > 0)) {
    FillMarginals(x.num_slots, y.num_slots);
  }
  return counts_;
}

void JointCountKernel::CountDense(const uint32_t* xs, const uint32_t* ys,
                                  size_t rows, size_t dx1, size_t dy1,
                                  const StatsOptions& options) {
  const size_t cells = dx1 * dy1;
  const bool drop = (options.null_policy == NullPolicy::kDropNulls);
  const bool scalar = (options.dispatch == JointKernelDispatch::kScalar);

  // Strategy choice depends only on the pair's shape and the dispatch
  // option — never on thread count or data values — so it is
  // deterministic, and every strategy emits identical cells anyway.
  if (cells <= rows) {
    // Row-dominated matrix: branch-free increments, whole-matrix
    // compaction scan. Lane-splitting needs per-cell counts to fit the
    // uint32 lane counters, which rows bounds.
    if (!scalar && rows < UINT32_MAX) {
      CountDenseLanes(xs, ys, rows, dy1, cells, drop);
    } else {
      CountDenseScan(xs, ys, rows, dy1, cells, drop);
    }
    return;
  }
  if (!scalar && cells >= kSortStrategyMinCells) {
    CountDenseSorted(xs, ys, rows, dy1, drop);
    return;
  }
  if (dense_.size() < cells) dense_.resize(cells, 0);
  CountDenseTouched(xs, ys, rows, dy1, drop);
}

void JointCountKernel::CountDenseScan(const uint32_t* xs, const uint32_t* ys,
                                      size_t rows, size_t dy1, size_t cells,
                                      bool drop) {
  if (dense_.size() < cells) dense_.resize(cells, 0);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    ++dense_[static_cast<size_t>(sx) * dy1 + sy];
    ++counts_.total;
  }
  // Flat-index order is the canonical row-major cell order; zeroing as
  // we go restores the all-zero scratch invariant.
  for (size_t slot = 0; slot < cells; ++slot) {
    if (dense_[slot] == 0) continue;
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(slot / dy1));
    counts_.cell_y_slots.push_back(static_cast<uint32_t>(slot % dy1));
    counts_.cell_counts.push_back(dense_[slot]);
    dense_[slot] = 0;
  }
}

void JointCountKernel::CountDenseLanes(const uint32_t* xs, const uint32_t* ys,
                                       size_t rows, size_t dy1, size_t cells,
                                       bool drop) {
  constexpr size_t kLanes = kDenseLaneCount;
  if (lanes_.size() < cells * kLanes) lanes_.resize(cells * kLanes, 0);
  uint32_t* lane[kLanes];
  for (size_t l = 0; l < kLanes; ++l) lane[l] = lanes_.data() + l * cells;

  // Unrolled row loop: lane l sees rows r + l only, so the kLanes
  // increments per iteration hit independent sub-histograms and can
  // retire in parallel even when the data is heavily skewed.
  uint64_t retained[kLanes] = {};
  size_t r = 0;
  for (; r + kLanes <= rows; r += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      uint32_t sx = xs[r + l];
      uint32_t sy = ys[r + l];
      if (drop && (sx == 0 || sy == 0)) continue;
      ++lane[l][static_cast<size_t>(sx) * dy1 + sy];
      ++retained[l];
    }
  }
  for (; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    ++lane[0][static_cast<size_t>(sx) * dy1 + sy];
    ++retained[0];
  }
  for (size_t l = 0; l < kLanes; ++l) counts_.total += retained[l];

  // One merge pass per pair: sum the lanes per cell (a strided integer
  // reduction the vectorizer handles), emit non-zero cells in flat-index
  // order — the canonical row-major order — and re-zero the lanes to
  // restore the all-zero scratch invariant. Integer sums, so the merged
  // counts equal the single-histogram counts exactly.
  for (size_t slot = 0; slot < cells; ++slot) {
    uint64_t count = 0;
    for (size_t l = 0; l < kLanes; ++l) {
      count += lane[l][slot];
      lane[l][slot] = 0;
    }
    if (count == 0) continue;
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(slot / dy1));
    counts_.cell_y_slots.push_back(static_cast<uint32_t>(slot % dy1));
    counts_.cell_counts.push_back(count);
  }
}

void JointCountKernel::CountDenseTouched(const uint32_t* xs, const uint32_t* ys,
                                         size_t rows, size_t dy1,
                                         bool drop) {
  touched_.clear();
  for (size_t r = 0; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    size_t slot = static_cast<size_t>(sx) * dy1 + sy;
    if (dense_[slot]++ == 0) touched_.push_back(slot);
    ++counts_.total;
  }

  // Sorted touched cells give the same canonical row-major order as the
  // scan; resetting exactly the touched cells restores the all-zero
  // scratch invariant.
  std::sort(touched_.begin(), touched_.end());
  counts_.cell_x_slots.reserve(touched_.size());
  counts_.cell_y_slots.reserve(touched_.size());
  counts_.cell_counts.reserve(touched_.size());
  for (uint64_t slot : touched_) {
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(slot / dy1));
    counts_.cell_y_slots.push_back(static_cast<uint32_t>(slot % dy1));
    counts_.cell_counts.push_back(dense_[slot]);
    dense_[slot] = 0;
  }
}

void JointCountKernel::CountDenseSorted(const uint32_t* xs, const uint32_t* ys,
                                        size_t rows, size_t dy1,
                                        bool drop) {
  // Pack each retained row into its flat cell index. Ascending flat
  // indices ARE the canonical row-major cell order, so sorting and
  // run-length encoding reproduces exactly what the matrix strategies
  // emit — without ever materializing the matrix (the win: scratch is
  // O(rows), not O(cells), and every pass is sequential).
  keys_.clear();
  keys_.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    keys_.push_back(static_cast<uint64_t>(sx) * dy1 + sy);
  }
  counts_.total = keys_.size();
  if (keys_.empty()) return;

  RadixSortKeys(*std::max_element(keys_.begin(), keys_.end()));

  const size_t n = keys_.size();
  for (size_t i = 0; i < n;) {
    const uint64_t key = keys_[i];
    size_t j = i + 1;
    while (j < n && keys_[j] == key) ++j;
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(key / dy1));
    counts_.cell_y_slots.push_back(static_cast<uint32_t>(key % dy1));
    counts_.cell_counts.push_back(static_cast<uint64_t>(j - i));
    i = j;
  }
}

void JointCountKernel::CountSparse(const uint32_t* xs, const uint32_t* ys,
                                   size_t rows, const StatsOptions& options) {
  const bool drop = (options.null_policy == NullPolicy::kDropNulls);
  if (options.dispatch == JointKernelDispatch::kScalar) {
    CountSparseHash(xs, ys, rows, drop);
  } else {
    CountSparsePacked(xs, ys, rows, drop);
  }
}

void JointCountKernel::CountSparseHash(const uint32_t* xs, const uint32_t* ys,
                                       size_t rows, bool drop) {
  sparse_.clear();
  for (size_t r = 0; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    // Same packing as JointHistogram::PackCodes(code_x, code_y): slot in
    // the high word, slot in the low word.
    ++sparse_[(static_cast<uint64_t>(sx) << 32) | sy];
    ++counts_.total;
  }

  // Packed keys sort exactly like (x_slot, y_slot) pairs, so sorting them
  // yields the same canonical cell order the dense kernel produces.
  sparse_keys_.clear();
  sparse_keys_.reserve(sparse_.size());
  // depmatch-analyze: allow(det-unordered-iter) — only keys are taken,
  // and they are sorted on the next line; hash order never reaches the
  // output.
  for (const auto& [key, count] : sparse_) sparse_keys_.push_back(key);
  std::sort(sparse_keys_.begin(), sparse_keys_.end());
  counts_.cell_x_slots.reserve(sparse_keys_.size());
  counts_.cell_y_slots.reserve(sparse_keys_.size());
  counts_.cell_counts.reserve(sparse_keys_.size());
  for (uint64_t key : sparse_keys_) {
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(key >> 32));
    counts_.cell_y_slots.push_back(
        static_cast<uint32_t>(key & 0xffffffffULL));
    counts_.cell_counts.push_back(sparse_.find(key)->second);
  }
}

void JointCountKernel::CountSparsePacked(const uint32_t* xs, const uint32_t* ys,
                                         size_t rows, bool drop) {
  // The hash map's packed (x_slot << 32 | y_slot) keys already sort in
  // the canonical cell order, so the sort-based strategy applies to the
  // sparse tier verbatim: pack, radix-sort, run-length encode. No hashing
  // per row, no rehash growth, and the same exact output.
  keys_.clear();
  keys_.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t sx = xs[r];
    uint32_t sy = ys[r];
    if (drop && (sx == 0 || sy == 0)) continue;
    keys_.push_back((static_cast<uint64_t>(sx) << 32) | sy);
  }
  counts_.total = keys_.size();
  if (keys_.empty()) return;

  RadixSortKeys(*std::max_element(keys_.begin(), keys_.end()));

  const size_t n = keys_.size();
  for (size_t i = 0; i < n;) {
    const uint64_t key = keys_[i];
    size_t j = i + 1;
    while (j < n && keys_[j] == key) ++j;
    counts_.cell_x_slots.push_back(static_cast<uint32_t>(key >> 32));
    counts_.cell_y_slots.push_back(
        static_cast<uint32_t>(key & 0xffffffffULL));
    counts_.cell_counts.push_back(static_cast<uint64_t>(j - i));
    i = j;
  }
}

void JointCountKernel::RadixSortKeys(uint64_t max_key) {
  const size_t n = keys_.size();
  if (n < 2) return;
  if (keys_tmp_.size() < n) keys_tmp_.resize(n);

  size_t passes = 0;
  while (passes < 8 && (max_key >> (8 * passes)) != 0) ++passes;

  uint64_t* src = keys_.data();
  uint64_t* dst = keys_tmp_.data();
  size_t hist[256];
  for (size_t p = 0; p < passes; ++p) {
    const unsigned shift = static_cast<unsigned>(8 * p);
    std::fill(std::begin(hist), std::end(hist), size_t{0});
    for (size_t i = 0; i < n; ++i) {
      ++hist[static_cast<size_t>((src[i] >> shift) & 0xff)];
    }
    // A pass whose digit is constant permutes nothing; skip the copy.
    if (hist[static_cast<size_t>((src[0] >> shift) & 0xff)] == n) continue;
    size_t offset = 0;
    for (size_t b = 0; b < 256; ++b) {
      size_t count = hist[b];
      hist[b] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[hist[static_cast<size_t>((src[i] >> shift) & 0xff)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys_.data()) {
    std::copy(src, src + n, keys_.data());
  }
}

void JointCountKernel::FillMarginals(size_t x_slots, size_t y_slots) {
  counts_.has_marginals = true;
  counts_.x_marginals.assign(x_slots, 0);
  counts_.y_marginals.assign(y_slots, 0);
  for (size_t c = 0; c < counts_.cell_counts.size(); ++c) {
    counts_.x_marginals[counts_.cell_x_slots[c]] += counts_.cell_counts[c];
    counts_.y_marginals[counts_.cell_y_slots[c]] += counts_.cell_counts[c];
  }
}

double EntropyFromWeighted(double weighted, uint64_t total) {
  if (total == 0) return 0.0;
  double n = static_cast<double>(total);
  double h = std::log2(n) - weighted / n;
  return h < 0.0 ? 0.0 : h;
}

// c * log2(c) memoized for small counts, which dominate the folds (cell
// counts rarely exceed a few thousand even on large tables). The table
// holds the exact doubles std::log2 produces, so memoization does not
// perturb any result. 4096 entries = 32 KiB, resident in L1/L2.
const double* CellWeightTable() {
  static const double* table = [] {
    auto* t = new double[kCellWeightTableSize];
    t[0] = 0.0;
    for (size_t c = 1; c < kCellWeightTableSize; ++c) {
      double d = static_cast<double>(c);
      t[c] = d * std::log2(d);
    }
    return t;
  }();
  return table;
}

double JointEntropyFromCells(const JointCounts& counts) {
  const double* table = CellWeightTable();
  double weighted = 0.0;
  for (uint64_t count : counts.cell_counts) {
    weighted += CellWeight(table, count);
  }
  return EntropyFromWeighted(weighted, counts.total);
}

double EntropyFromSlots(const std::vector<uint64_t>& slots, uint64_t total) {
  // Codes first, null slot last: the historical EntropyOf order, kept so
  // cached entropies stay bit-identical with it.
  const double* table = CellWeightTable();
  double weighted = 0.0;
  for (size_t s = 1; s < slots.size(); ++s) {
    if (slots[s] == 0) continue;
    weighted += CellWeight(table, slots[s]);
  }
  if (!slots.empty() && slots[0] > 0) {
    weighted += CellWeight(table, slots[0]);
  }
  return EntropyFromWeighted(weighted, total);
}

size_t SupportFromSlots(const std::vector<uint64_t>& slots) {
  size_t support = 0;
  for (uint64_t count : slots) {
    if (count > 0) ++support;
  }
  return support;
}

double ChiSquareFromCounts(const JointCounts& counts,
                           const std::vector<uint64_t>& x_slots,
                           const std::vector<uint64_t>& y_slots) {
  if (counts.total == 0) return 0.0;
  double n = static_cast<double>(counts.total);
  // chi^2 = sum over observed cells of o^2/e - N (see association.cc for
  // the derivation); canonical cell order keeps the fold deterministic.
  double sum = 0.0;
  for (size_t c = 0; c < counts.cell_counts.size(); ++c) {
    double row = static_cast<double>(x_slots[counts.cell_x_slots[c]]);
    double col = static_cast<double>(y_slots[counts.cell_y_slots[c]]);
    double observed = static_cast<double>(counts.cell_counts[c]);
    double expected = row * col / n;
    sum += observed * observed / expected;
  }
  double chi2 = sum - n;
  return chi2 < 0.0 ? 0.0 : chi2;
}

}  // namespace depmatch
