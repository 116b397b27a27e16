#include "depmatch/stats/association.h"

#include <algorithm>
#include <cmath>

#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {
namespace {

// Marginal slot vectors and supports for a counted pair, from the kernel's
// per-pair marginals when present, otherwise from the column marginals.
struct PairMarginals {
  std::vector<uint64_t> x_slots;
  std::vector<uint64_t> y_slots;
  size_t support_x = 0;
  size_t support_y = 0;
};

PairMarginals MarginalsFor(const JointCounts& joint, const EncodedColumn& x,
                           const EncodedColumn& y, NullPolicy policy) {
  PairMarginals m;
  if (joint.has_marginals) {
    m.x_slots = joint.x_marginals;
    m.y_slots = joint.y_marginals;
  } else {
    m.x_slots = ComputeColumnMarginal(CodeViewOf(x), policy).slots;
    m.y_slots = ComputeColumnMarginal(CodeViewOf(y), policy).slots;
  }
  m.support_x = SupportFromSlots(m.x_slots);
  m.support_y = SupportFromSlots(m.y_slots);
  return m;
}

}  // namespace

double ChiSquareStatistic(const Column& x, const Column& y,
                          const StatsOptions& options) {
  // chi^2 = N * (sum over observed cells of o^2 / (row * col) - 1).
  // Summing only observed cells is exact: unobserved cells contribute
  // (0 - e)^2 / e = e, and the sum of all expected values is N, so
  //   chi^2 = sum_observed (o - e)^2 / e + (N - sum_observed e)
  //         = sum_observed (o^2/e - 2o + e) + N - sum_observed e
  //         = sum_observed o^2/e - 2N + N = sum_observed o^2/e - N.
  // The fold itself lives in ChiSquareFromCounts (joint_kernel.h).
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  const JointCounts& joint =
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
  if (joint.total == 0) return 0.0;
  PairMarginals m = MarginalsFor(joint, ex, ey, options.null_policy);
  return ChiSquareFromCounts(joint, m.x_slots, m.y_slots);
}

double CramersV(const Column& x, const Column& y,
                const StatsOptions& options) {
  // One counting pass serves both the chi-square fold and the level
  // counts.
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  const JointCounts& joint =
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
  if (joint.total == 0) return 0.0;
  PairMarginals m = MarginalsFor(joint, ex, ey, options.null_policy);
  if (m.support_x < 2 || m.support_y < 2) return 0.0;
  double chi2 = ChiSquareFromCounts(joint, m.x_slots, m.y_slots);
  double denom = static_cast<double>(joint.total) *
                 static_cast<double>(std::min(m.support_x, m.support_y) - 1);
  double v = std::sqrt(chi2 / denom);
  return std::min(v, 1.0);
}

}  // namespace depmatch
