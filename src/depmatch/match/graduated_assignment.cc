// depmatch-lint: bit-identical-file
// Results are bit-identical at any thread count: every floating-point
// sum in this file accumulates in a fixed, thread-independent order.
// Do not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions); the
// depmatch_analyze bit-identical rule and the tsan_stress tests enforce
// and exercise this contract.
#include "depmatch/match/graduated_assignment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/match/candidate_filter.h"
#include "depmatch/match/metric.h"
#include "depmatch/match/score_kernel.h"

namespace depmatch {
namespace {

// Rounds a soft assignment to a hard injective mapping by repeatedly
// committing the largest remaining cell. `soft` is flat (n+1) x (m+1)
// row-major (slack row n, slack column m). `allow_unmatched` permits
// leaving a source unmatched when its slack weight beats all remaining
// cells.
std::vector<MatchPair> Round(const std::vector<double>& soft, size_t n,
                             size_t m, bool allow_unmatched) {
  size_t stride = m + 1;
  std::vector<char> src_done(n, 0);
  std::vector<char> tgt_used(m, 0);
  std::vector<MatchPair> pairs;
  size_t remaining = n;
  while (remaining > 0) {
    double best = -std::numeric_limits<double>::infinity();
    size_t bs = 0, bt = 0;
    bool found = false;
    for (size_t s = 0; s < n; ++s) {
      if (src_done[s]) continue;
      const double* row = soft.data() + s * stride;
      for (size_t t = 0; t < m; ++t) {
        if (tgt_used[t]) continue;
        if (row[t] > best) {
          best = row[t];
          bs = s;
          bt = t;
          found = true;
        }
      }
    }
    if (!found) break;  // no free targets left
    if (allow_unmatched && soft[bs * stride + m] >= best) {
      // Slack wins: leave bs unmatched.
      src_done[bs] = 1;
      --remaining;
      continue;
    }
    src_done[bs] = 1;
    tgt_used[bt] = 1;
    pairs.push_back({bs, bt});
    --remaining;
  }
  return pairs;
}

}  // namespace

Result<MatchResult> GraduatedAssignmentMatch(
    const DependencyGraph& source, const DependencyGraph& target,
    const MatchOptions& options, const GraduatedAssignmentParams& params) {
  size_t n = source.size();
  size_t m = target.size();
  if (options.cardinality == Cardinality::kOneToOne && n != m) {
    return InvalidArgumentError(
        StrFormat("one-to-one mapping requires equal sizes (%zu vs %zu)", n,
                  m));
  }
  if (options.cardinality == Cardinality::kOnto && n > m) {
    return InvalidArgumentError(StrFormat(
        "onto mapping requires source size <= target size (%zu vs %zu)", n,
        m));
  }
  Metric metric(options.metric, options.alpha);
  MatchResult result;
  result.metric = options.metric;
  if (n == 0) {
    result.metric_value = metric.Finalize(0.0);
    return result;
  }

  std::vector<std::vector<size_t>> candidate_lists = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);
  // allowed[s * m + t]: the filter admits s -> t.
  std::vector<char> allowed(n * m, 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t : candidate_lists[s]) allowed[s * m + t] = 1;
  }

  ScoreKernel kernel(source, target, metric);

  // Soft assignment, flat (n+1) x (m+1) with one slack row (index n) and
  // slack column (index m). Disallowed cells stay exactly 0 throughout,
  // which is what lets the gradient kernel skip them by weight alone.
  size_t stride = m + 1;
  std::vector<double> soft((n + 1) * stride, 0.0);
  for (size_t s = 0; s < n; ++s) {
    double* row = soft.data() + s * stride;
    for (size_t t = 0; t < m; ++t) {
      if (!allowed[s * m + t]) continue;
      // Deterministic symmetry-breaking perturbation.
      row[t] = 1.0 + 1e-3 * static_cast<double>((s * 31 + t * 17) % 7);
    }
    row[m] = 1.0;
  }
  for (size_t t = 0; t <= m; ++t) soft[n * stride + t] = 1.0;

  std::vector<double> gradient(n * m, 0.0);

  for (double beta = params.beta_initial; beta <= params.beta_final;
       beta *= params.beta_rate) {
    for (int it = 0; it < params.iterations_per_beta; ++it) {
      // Q[s][t] = dE/dM[s][t]: node term + sum of pair interactions with
      // the current soft assignment. Rows are independent (each worker
      // writes a disjoint gradient row and only reads `soft`), so the
      // values — and everything downstream — are bit-identical at any
      // thread count.
      ThreadPool::ParallelForWithWorker(
          options.num_threads, n, [&](size_t /*worker*/, size_t s) {
            double* grad_row = gradient.data() + s * m;
            const char* allowed_row = allowed.data() + s * m;
            for (size_t t = 0; t < m; ++t) {
              if (!allowed_row[t]) continue;
              grad_row[t] = kernel.SoftGradient(soft.data(), stride, s, t);
            }
          });
      // Softmax re-estimation.
      for (size_t s = 0; s < n; ++s) {
        double* row = soft.data() + s * stride;
        for (size_t t = 0; t < m; ++t) {
          if (!allowed[s * m + t]) continue;
          // Clamp the exponent to keep exp() finite.
          double e = std::min(beta * gradient[s * m + t], 500.0);
          row[t] = std::exp(e);
        }
        row[m] = 1.0;  // slack stays at neutral weight
      }
      for (size_t t = 0; t <= m; ++t) soft[n * stride + t] = 1.0;
      // Sinkhorn normalization (slack row/column participate but are not
      // required to sum to one across the other dimension).
      for (int sk = 0; sk < params.sinkhorn_iterations; ++sk) {
        // Rows (real sources only).
        for (size_t s = 0; s < n; ++s) {
          double* srow = soft.data() + s * stride;
          double row = srow[m];
          for (size_t t = 0; t < m; ++t) row += srow[t];
          if (row <= 0.0) continue;
          for (size_t t = 0; t <= m; ++t) srow[t] /= row;
        }
        // Columns (real targets only).
        for (size_t t = 0; t < m; ++t) {
          double col = soft[n * stride + t];
          for (size_t s = 0; s < n; ++s) col += soft[s * stride + t];
          if (col <= 0.0) continue;
          for (size_t s = 0; s <= n; ++s) soft[s * stride + t] /= col;
        }
      }
    }
  }

  bool allow_unmatched = options.cardinality == Cardinality::kPartial;
  result.pairs = Round(soft, n, m, allow_unmatched);
  std::sort(result.pairs.begin(), result.pairs.end());
  if ((options.cardinality != Cardinality::kPartial) &&
      result.pairs.size() != n) {
    return NotFoundError(
        "graduated assignment could not assign every source attribute; "
        "widen candidates_per_attribute");
  }
  result.metric_value = metric.Evaluate(source, target, result.pairs);
  return result;
}

}  // namespace depmatch
