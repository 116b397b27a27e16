#include "depmatch/stats/entropy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "depmatch/stats/joint_kernel.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {
namespace {

// Marginal entropies of a counted pair: from the kernel's per-pair
// marginals when the retained-row set is pair-dependent, otherwise from
// the pair-invariant column marginals.
std::pair<double, double> MarginalEntropies(const JointCounts& joint,
                                            const EncodedColumn& x,
                                            const EncodedColumn& y,
                                            NullPolicy policy) {
  if (joint.has_marginals) {
    return {EntropyFromSlots(joint.x_marginals, joint.total),
            EntropyFromSlots(joint.y_marginals, joint.total)};
  }
  return {ComputeColumnMarginal(CodeViewOf(x), policy).entropy,
          ComputeColumnMarginal(CodeViewOf(y), policy).entropy};
}

}  // namespace

double EntropyFromCounts(const std::vector<uint64_t>& counts) {
  uint64_t total = 0;
  double weighted = 0.0;
  for (uint64_t count : counts) {
    if (count == 0) continue;
    total += count;
    double c = static_cast<double>(count);
    weighted += c * std::log2(c);
  }
  if (total == 0) return 0.0;
  double n = static_cast<double>(total);
  double h = std::log2(n) - weighted / n;
  return h < 0.0 ? 0.0 : h;
}

double EntropyOf(const Column& x, const StatsOptions& options) {
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  return ComputeColumnMarginal(CodeViewOf(ex), options.null_policy).entropy;
}

double JointEntropy(const Column& x, const Column& y,
                    const StatsOptions& options) {
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  return JointEntropyFromCells(
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options));
}

double MutualInformation(const Column& x, const Column& y,
                         const StatsOptions& options) {
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  const JointCounts& joint =
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
  if (joint.total == 0) return 0.0;
  auto [hx, hy] = MarginalEntropies(joint, ex, ey, options.null_policy);
  double mi = hx + hy - JointEntropyFromCells(joint);
  return mi < 0.0 ? 0.0 : mi;
}

double ConditionalEntropy(const Column& x, const Column& y,
                          const StatsOptions& options) {
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  const JointCounts& joint =
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
  if (joint.total == 0) return 0.0;
  double hy =
      joint.has_marginals
          ? EntropyFromSlots(joint.y_marginals, joint.total)
          : ComputeColumnMarginal(CodeViewOf(ey), options.null_policy).entropy;
  double cond = JointEntropyFromCells(joint) - hy;
  return cond < 0.0 ? 0.0 : cond;
}

double NormalizedMutualInformation(const Column& x, const Column& y,
                                   const StatsOptions& options) {
  EncodedColumn ex = EncodedColumn::FromColumn(x);
  EncodedColumn ey = EncodedColumn::FromColumn(y);
  JointCountKernel kernel;
  const JointCounts& joint =
      kernel.Count(CodeViewOf(ex), CodeViewOf(ey), options);
  if (joint.total == 0) return 0.0;
  auto [hx, hy] = MarginalEntropies(joint, ex, ey, options.null_policy);
  double denom = std::max(hx, hy);
  if (denom <= 0.0) return 0.0;
  double mi = hx + hy - JointEntropyFromCells(joint);
  if (mi < 0.0) mi = 0.0;
  return std::min(mi / denom, 1.0);
}

}  // namespace depmatch
