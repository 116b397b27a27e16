#include "depmatch/graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "depmatch/common/thread_pool.h"
#include "depmatch/stats/joint_kernel.h"

namespace depmatch {
namespace {

// Cache-blocked strict-upper-triangle work list. Pairs are emitted in
// kPairBlockColumns x kPairBlockColumns tiles, so a worker draining
// consecutive work items touches a bounded set of encoded columns per
// stretch: each block of columns streams through cache once per tile
// instead of once per pair across the whole row. The pair SET is exactly
// the strict upper triangle and every pair's fold is independent of
// evaluation order, so results are identical to the flat order.
inline constexpr size_t kPairBlockColumns = 8;

std::vector<std::pair<size_t, size_t>> BlockedPairs(size_t n) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (n > 1) pairs.reserve(n * (n - 1) / 2);
  for (size_t bi = 0; bi < n; bi += kPairBlockColumns) {
    const size_t ei = std::min(n, bi + kPairBlockColumns);
    for (size_t bj = bi; bj < n; bj += kPairBlockColumns) {
      const size_t ej = std::min(n, bj + kPairBlockColumns);
      for (size_t i = bi; i < ei; ++i) {
        for (size_t j = std::max(i + 1, bj); j < ej; ++j) {
          pairs.emplace_back(i, j);
        }
      }
    }
  }
  return pairs;
}

}  // namespace

// THE edge fold (see graph_builder.h): the cold builder and the
// incremental refresh both funnel through this one body, so equal counts
// always produce bit-equal edge values.
double DependencyEdgeValue(DependencyMeasure measure, const JointCounts& joint,
                           const ColumnMarginal& mx, const ColumnMarginal& my) {
  if (joint.total == 0) return 0.0;
  // Under kDropNulls with nulls present the retained rows are
  // pair-specific and the kernel supplies marginals; otherwise the cached
  // pair-invariant column marginals apply.
  double hx = joint.has_marginals
                  ? EntropyFromSlots(joint.x_marginals, joint.total)
                  : mx.entropy;
  double hy = joint.has_marginals
                  ? EntropyFromSlots(joint.y_marginals, joint.total)
                  : my.entropy;
  switch (measure) {
    case DependencyMeasure::kMutualInformation: {
      double mi = hx + hy - JointEntropyFromCells(joint);
      return mi < 0.0 ? 0.0 : mi;
    }
    case DependencyMeasure::kNormalizedMutualInformation: {
      double denom = std::max(hx, hy);
      if (denom <= 0.0) return 0.0;
      double mi = hx + hy - JointEntropyFromCells(joint);
      if (mi < 0.0) mi = 0.0;
      return std::min(mi / denom, 1.0);
    }
    case DependencyMeasure::kCramersV: {
      size_t levels_x =
          joint.has_marginals ? SupportFromSlots(joint.x_marginals)
                              : mx.support;
      size_t levels_y =
          joint.has_marginals ? SupportFromSlots(joint.y_marginals)
                              : my.support;
      if (levels_x < 2 || levels_y < 2) return 0.0;
      double chi2 = ChiSquareFromCounts(
          joint, joint.has_marginals ? joint.x_marginals : mx.slots,
          joint.has_marginals ? joint.y_marginals : my.slots);
      double denom = static_cast<double>(joint.total) *
                     static_cast<double>(std::min(levels_x, levels_y) - 1);
      return std::min(std::sqrt(chi2 / denom), 1.0);
    }
  }
  return 0.0;
}

Result<DependencyGraph> BuildDependencyGraph(
    const Table& table, const DependencyGraphOptions& options) {
  return BuildDependencyGraph(EncodedTableView::FromTable(table), options);
}

Result<DependencyGraph> BuildDependencyGraph(
    const EncodedTableView& view, const DependencyGraphOptions& options,
    StatCache* cache) {
  if (!view.valid()) {
    return InvalidArgumentError("BuildDependencyGraph: invalid (empty) view");
  }
  size_t n = view.num_attributes();
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(view.attribute_name(i));
  }
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));

  size_t workers = std::max<size_t>(options.num_threads, 1);

  // Per-column selection stats play the marginal cache's role and carry
  // the (possibly remapped) slot arrays; with a StatCache they are also
  // memoized across builds sharing the base table and row selection.
  std::vector<std::shared_ptr<const ColumnSelectionStats>> stats(n);
  ThreadPool::ParallelForWithWorker(
      workers, n, [&](size_t /*worker*/, size_t i) {
        stats[i] = cache != nullptr
                       ? cache->Get(view, i, options.stats.null_policy)
                       : ComputeSelectionStats(view, i,
                                               options.stats.null_policy);
      });

  for (size_t i = 0; i < n; ++i) {
    matrix[i][i] = stats[i]->marginal.entropy;
  }

  std::vector<std::pair<size_t, size_t>> pairs = BlockedPairs(n);

  // The edge memo tag is the measure (the fold differs per measure). The
  // kernel knobs stay out of it: dense, sparse and every dispatch emit
  // bit-identical folds (stat_cache.h documents the contract).
  const uint32_t fold_tag = static_cast<uint32_t>(options.measure);
  const NullPolicy policy = options.stats.null_policy;

  // One counting kernel per worker: scratch buffers are allocated
  // O(threads) times and reused across pairs.
  std::vector<JointCountKernel> kernels(workers);
  ThreadPool::ParallelForWithWorker(
      workers, pairs.size(), [&](size_t worker, size_t k) {
        auto [i, j] = pairs[k];
        double value;
        if (cache == nullptr ||
            !cache->GetEdge(view, i, j, policy, fold_tag, &value)) {
          const JointCounts& joint = kernels[worker].Count(
              stats[i]->code_view(), stats[j]->code_view(), options.stats);
          value = DependencyEdgeValue(options.measure, joint,
                                      stats[i]->marginal, stats[j]->marginal);
          if (cache != nullptr) {
            cache->PutEdge(view, i, j, policy, fold_tag, value);
          }
        }
        matrix[i][j] = value;
        matrix[j][i] = value;
      });

  return DependencyGraph::Create(std::move(names), std::move(matrix));
}

}  // namespace depmatch
