// depmatch-lint: bit-identical-file
// Results are bit-identical at any thread count: every floating-point
// sum in this file accumulates in a fixed, thread-independent order.
// Do not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions); the
// depmatch_analyze bit-identical rule and the tsan_stress tests enforce
// and exercise this contract.
#include "depmatch/match/score_kernel.h"

#include <algorithm>
#include <cmath>

#include "depmatch/common/logging.h"

namespace depmatch {
namespace {

// Mirrors Metric::Term's zero-sum cutoff for the normal kinds.
constexpr double kZeroSumEpsilon = 1e-12;

// The per-term formula with the kind resolved at compile time. Produces
// exactly the doubles Metric::Term produces.
template <bool kEuclidean>
inline double TermOf(double x, double y, double alpha) {
  if constexpr (kEuclidean) {
    double d = x - y;
    return d * d;
  } else {
    double sum = x + y;
    double nd = (sum < kZeroSumEpsilon) ? 0.0 : std::fabs(x - y) / sum;
    return 1.0 - alpha * nd;
  }
}

std::vector<double> Flatten(const DependencyGraph& g) {
  size_t n = g.size();
  std::vector<double> flat(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) flat[i * n + j] = g.mi(i, j);
  }
  return flat;
}

}  // namespace

ScoreKernel::ScoreKernel(const DependencyGraph& a, const DependencyGraph& b,
                         const Metric& metric, size_t pair_term_budget)
    : n_(a.size()),
      m_(b.size()),
      metric_(metric),
      maximize_(metric.maximize()),
      structural_(metric.structural()),
      euclidean_(!metric.maximize()),
      alpha_(metric.alpha()),
      a_flat_(Flatten(a)),
      b_flat_(Flatten(b)) {
  size_t nm = n_ * m_;
  if (!structural_ || nm == 0 || nm > pair_term_budget / nm) return;
  pair_terms_.resize(nm * nm);
  for (size_t s = 0; s < n_; ++s) {
    const double* a_row = a_flat_.data() + s * n_;
    for (size_t t = 0; t < m_; ++t) {
      const double* b_row = b_flat_.data() + t * m_;
      double* row = pair_terms_.data() + (s * m_ + t) * nm;
      for (size_t s2 = 0; s2 < n_; ++s2) {
        double av = a_row[s2];
        double* cell = row + s2 * m_;
        if (euclidean_) {
          for (size_t t2 = 0; t2 < m_; ++t2) {
            cell[t2] = TermOf<true>(av, b_row[t2], alpha_);
          }
        } else {
          for (size_t t2 = 0; t2 < m_; ++t2) {
            cell[t2] = TermOf<false>(av, b_row[t2], alpha_);
          }
        }
      }
    }
  }
}

double ScoreKernel::Term(double x, double y) const {
  return euclidean_ ? TermOf<true>(x, y, alpha_)
                    : TermOf<false>(x, y, alpha_);
}

double ScoreKernel::PairTerm(size_t s, size_t t, size_t s2,
                             size_t t2) const {
  if (!pair_terms_.empty()) {
    return pair_terms_[(s * m_ + t) * (n_ * m_) + s2 * m_ + t2];
  }
  return Term(a_flat_[s * n_ + s2], b_flat_[t * m_ + t2]);
}

template <bool kEuclidean>
double ScoreKernel::GainOfImpl(const MatchPair* assigned, size_t count,
                               size_t s, size_t t, bool exclude_s) const {
  if (!structural_) {
    return TermOf<kEuclidean>(a_flat_[s * n_ + s], b_flat_[t * m_ + t],
                              alpha_);
  }
  if (!pair_terms_.empty()) {
    const double* row = pair_terms_.data() + (s * m_ + t) * (n_ * m_);
    double gain = row[s * m_ + t];
    for (size_t i = 0; i < count; ++i) {
      if (exclude_s && assigned[i].source == s) continue;
      gain += 2.0 * row[assigned[i].source * m_ + assigned[i].target];
    }
    return gain;
  }
  const double* a_row = a_flat_.data() + s * n_;
  const double* b_row = b_flat_.data() + t * m_;
  double gain = TermOf<kEuclidean>(a_row[s], b_row[t], alpha_);
  for (size_t i = 0; i < count; ++i) {
    if (exclude_s && assigned[i].source == s) continue;
    gain += 2.0 * TermOf<kEuclidean>(a_row[assigned[i].source],
                                     b_row[assigned[i].target], alpha_);
  }
  return gain;
}

double ScoreKernel::GainOf(const MatchPair* assigned, size_t count,
                           size_t s, size_t t) const {
  return euclidean_ ? GainOfImpl<true>(assigned, count, s, t, false)
                    : GainOfImpl<false>(assigned, count, s, t, false);
}

double ScoreKernel::GainOfExcluding(const MatchPair* assigned, size_t count,
                                    size_t s, size_t t) const {
  return euclidean_ ? GainOfImpl<true>(assigned, count, s, t, true)
                    : GainOfImpl<false>(assigned, count, s, t, true);
}

template <bool kEuclidean>
double ScoreKernel::EvaluateSumImpl(
    const std::vector<MatchPair>& pairs) const {
  double sum = 0.0;
  if (structural_) {
    for (const MatchPair& p : pairs) {
      const double* a_row = a_flat_.data() + p.source * n_;
      const double* b_row = b_flat_.data() + p.target * m_;
      for (const MatchPair& q : pairs) {
        sum += TermOf<kEuclidean>(a_row[q.source], b_row[q.target], alpha_);
      }
    }
  } else {
    for (const MatchPair& p : pairs) {
      sum += TermOf<kEuclidean>(a_flat_[p.source * n_ + p.source],
                                b_flat_[p.target * m_ + p.target], alpha_);
    }
  }
  return sum;
}

double ScoreKernel::EvaluateSum(const std::vector<MatchPair>& pairs) const {
  for (const MatchPair& pair : pairs) {
    DEPMATCH_CHECK_LT(pair.source, n_);
    DEPMATCH_CHECK_LT(pair.target, m_);
  }
  return euclidean_ ? EvaluateSumImpl<true>(pairs)
                    : EvaluateSumImpl<false>(pairs);
}

double ScoreKernel::Evaluate(const std::vector<MatchPair>& pairs) const {
  return metric_.Finalize(EvaluateSum(pairs));
}

template <bool kEuclidean>
double ScoreKernel::SoftGradientImpl(const double* soft, size_t stride,
                                     size_t s, size_t t) const {
  // Compatibilities maximize: Euclidean terms (costs) are negated.
  double diag = TermOf<kEuclidean>(a_flat_[s * n_ + s],
                                   b_flat_[t * m_ + t], alpha_);
  double q = kEuclidean ? -diag : diag;
  if (!structural_) return q;
  // The t2 == t exclusion is handled by splitting each row into the two
  // contiguous ranges around t. Zero-weight cells (disallowed, or driven
  // to exactly 0 by Sinkhorn) are NOT skipped: 2.0 * 0.0 * c contributes
  // an exact zero, so including them leaves the accumulated value
  // bit-identical while keeping the inner loop branch-free.
  if (!pair_terms_.empty()) {
    const double* row = pair_terms_.data() + (s * m_ + t) * (n_ * m_);
    for (size_t s2 = 0; s2 < n_; ++s2) {
      if (s2 == s) continue;
      const double* soft_row = soft + s2 * stride;
      const double* term_row = row + s2 * m_;
      if constexpr (kEuclidean) {
        for (size_t t2 = 0; t2 < t; ++t2) {
          q += 2.0 * soft_row[t2] * -term_row[t2];
        }
        for (size_t t2 = t + 1; t2 < m_; ++t2) {
          q += 2.0 * soft_row[t2] * -term_row[t2];
        }
      } else {
        for (size_t t2 = 0; t2 < t; ++t2) {
          q += 2.0 * soft_row[t2] * term_row[t2];
        }
        for (size_t t2 = t + 1; t2 < m_; ++t2) {
          q += 2.0 * soft_row[t2] * term_row[t2];
        }
      }
    }
    return q;
  }
  const double* a_row = a_flat_.data() + s * n_;
  const double* b_row = b_flat_.data() + t * m_;
  for (size_t s2 = 0; s2 < n_; ++s2) {
    if (s2 == s) continue;
    const double* soft_row = soft + s2 * stride;
    double av = a_row[s2];
    for (size_t t2 = 0; t2 < m_; ++t2) {
      if (t2 == t) continue;
      double term = TermOf<kEuclidean>(av, b_row[t2], alpha_);
      double c = kEuclidean ? -term : term;
      q += 2.0 * soft_row[t2] * c;
    }
  }
  return q;
}

double ScoreKernel::SoftGradient(const double* soft, size_t stride,
                                 size_t s, size_t t) const {
  return euclidean_ ? SoftGradientImpl<true>(soft, stride, s, t)
                    : SoftGradientImpl<false>(soft, stride, s, t);
}

ScoreState::ScoreState(const ScoreKernel& kernel)
    : kernel_(kernel),
      target_of_(kernel.source_size(), kUnassigned),
      source_of_(kernel.target_size(), kUnassigned) {
  assigned_.reserve(kernel.source_size());
}

void ScoreState::Reset() {
  std::fill(target_of_.begin(), target_of_.end(), kUnassigned);
  std::fill(source_of_.begin(), source_of_.end(), kUnassigned);
  assigned_.clear();
  sum_ = 0.0;
}

double ScoreState::GainOf(size_t s, size_t t) const {
  return kernel_.GainOfExcluding(assigned_.data(), assigned_.size(), s, t);
}

void ScoreState::Assign(size_t s, size_t t) {
  sum_ += GainOf(s, t);
  target_of_[s] = t;
  source_of_[t] = s;
  // Insert keeping ascending source order; capacity was reserved, so this
  // never allocates.
  size_t i = assigned_.size();
  assigned_.push_back({s, t});
  while (i > 0 && assigned_[i - 1].source > s) {
    assigned_[i] = assigned_[i - 1];
    --i;
  }
  assigned_[i] = {s, t};
}

void ScoreState::Unassign(size_t s) {
  size_t t = target_of_[s];
  target_of_[s] = kUnassigned;
  source_of_[t] = kUnassigned;
  auto it = std::lower_bound(
      assigned_.begin(), assigned_.end(), s,
      [](const MatchPair& p, size_t v) { return p.source < v; });
  assigned_.erase(it);
  // Contribution is measured against the assignment without s.
  sum_ -= GainOf(s, t);
}

void ScoreState::AppendPairs(std::vector<MatchPair>* out) const {
  out->assign(assigned_.begin(), assigned_.end());
}

}  // namespace depmatch
