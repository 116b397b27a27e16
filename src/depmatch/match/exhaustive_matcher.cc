// depmatch-lint: bit-identical-file
// Results are bit-identical at any thread count: every floating-point
// sum in this file accumulates in a fixed, thread-independent order.
// Do not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions); the
// depmatch_analyze bit-identical rule and the tsan_stress tests enforce
// and exercise this contract.
#include "depmatch/match/exhaustive_matcher.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/match/candidate_filter.h"
#include "depmatch/match/metric.h"
#include "depmatch/match/score_kernel.h"

namespace depmatch {
namespace {

// Best objective sum published across parallel root branches. Branches
// prune against it *strictly* (only subtrees that cannot even tie are
// cut), so each branch still deterministically finds its first-in-DFS
// optimal solution no matter when other branches publish — which is what
// makes the parallel search's result independent of thread scheduling.
class SharedBound {
 public:
  SharedBound(bool maximize, double initial)
      : maximize_(maximize), value_(initial) {}

  double Load() const { return value_.load(std::memory_order_relaxed); }

  void Publish(double sum) {
    double current = value_.load(std::memory_order_relaxed);
    while ((maximize_ ? sum > current : sum < current) &&
           !value_.compare_exchange_weak(current, sum,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  bool maximize_;
  // Bound publication, not a sum: branches only prune strictly against
  // it, so the result stays exact at any publication order.
  // depmatch-analyze: allow(det-atomic-float) — no accumulation through
  // this atomic
  std::atomic<double> value_;
};

// Immutable per-search context shared by every branch: graphs (via the
// kernel), candidate lists, processing order, and the per-depth
// diagonal-term bounds.
struct SearchContext {
  SearchContext(const ScoreKernel& kernel_in, Cardinality cardinality_in,
                const std::vector<std::vector<size_t>>& candidates_in,
                const std::vector<size_t>& order_in)
      : kernel(kernel_in),
        cardinality(cardinality_in),
        candidates(candidates_in),
        order(order_in) {
    // Per-depth diagonal-term bounds (admissible: each future assignment
    // of order[k] pays at least / at most its best diagonal term over
    // its own candidates, regardless of which targets remain free).
    // Only valid when every source must be assigned (not partial).
    size_t depth = order.size();
    min_diag_suffix.assign(depth + 1, 0.0);
    max_diag_suffix.assign(depth + 1, 0.0);
    if (cardinality != Cardinality::kPartial) {
      for (size_t k = depth; k > 0; --k) {
        size_t s = order[k - 1];
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (size_t t : candidates[s]) {
          double term = kernel.PairTerm(s, t, s, t);
          lo = std::min(lo, term);
          hi = std::max(hi, term);
        }
        if (candidates[s].empty()) {
          lo = 0.0;
          hi = 0.0;
        }
        min_diag_suffix[k - 1] = min_diag_suffix[k] + lo;
        max_diag_suffix[k - 1] = max_diag_suffix[k] + hi;
      }
    }
  }

  const ScoreKernel& kernel;
  Cardinality cardinality;
  const std::vector<std::vector<size_t>>& candidates;
  const std::vector<size_t>& order;
  std::vector<double> min_diag_suffix;
  std::vector<double> max_diag_suffix;
};

// Depth-first branch-and-bound over a fixed source processing order.
class Search {
 public:
  Search(const SearchContext& ctx, uint64_t node_budget,
         SharedBound* shared_bound)
      : ctx_(ctx),
        metric_(ctx.kernel.metric()),
        node_budget_(node_budget),
        shared_bound_(shared_bound),
        used_(ctx.kernel.target_size(), 0) {
    assigned_.reserve(ctx.order.size());
  }

  // Installs a known-feasible assignment as the incumbent before the
  // search starts, enabling pruning from the first node.
  void SeedIncumbent(std::vector<MatchPair> pairs, double sum) {
    has_best_ = true;
    best_sum_ = sum;
    best_pairs_ = std::move(pairs);
  }

  // Runs the full search (the serial path). Returns true if any feasible
  // assignment was found (for partial, the empty assignment always
  // counts).
  bool Run() {
    if (ctx_.cardinality == Cardinality::kPartial && !has_best_) {
      // The empty mapping is feasible; it is the baseline to beat.
      has_best_ = true;
      best_sum_ = 0.0;
      best_pairs_.clear();
    }
    Dfs(0, 0.0);
    return has_best_;
  }

  // Runs one root-level branch: assigns order[0] -> *t (or, for partial
  // with nullopt, leaves it unmatched), then searches depths 1..end.
  // Mirrors one iteration of Dfs(0, 0.0)'s candidate loop.
  bool RunBranch(std::optional<size_t> t) {
    if (ctx_.cardinality == Cardinality::kPartial && !has_best_) {
      has_best_ = true;
      best_sum_ = 0.0;
      best_pairs_.clear();
    }
    if (!t.has_value()) {
      Dfs(1, 0.0);
      return has_best_;
    }
    size_t s = ctx_.order[0];
    if (++nodes_explored_ > node_budget_) {
      budget_exhausted_ = true;
      return has_best_;
    }
    double gain = ctx_.kernel.GainOf(nullptr, 0, s, *t);
    if (!metric_.maximize() && has_best_ &&
        gain + LowerBoundFrom(1) >= best_sum_) {
      return has_best_;
    }
    used_[*t] = 1;
    assigned_.push_back({s, *t});
    Dfs(1, gain);
    assigned_.pop_back();
    used_[*t] = 0;
    return has_best_;
  }

  const std::vector<MatchPair>& best_pairs() const { return best_pairs_; }
  double best_sum() const { return best_sum_; }
  bool has_best() const { return has_best_; }
  uint64_t nodes_explored() const { return nodes_explored_; }
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  // Admissible optimistic bound on the additional sum attainable from
  // depth `k` (maximization only). For exact cardinalities the r future
  // diagonal cells are bounded by each source's best candidate diagonal
  // term instead of MaxTerm, which bites hard on mismatched schema pairs.
  double UpperBoundFrom(size_t k) const {
    size_t assigned = assigned_.size();
    size_t remaining = ctx_.order.size() - k;
    if (metric_.structural()) {
      double final_count = static_cast<double>(assigned + remaining);
      double now = static_cast<double>(assigned);
      double cells = final_count * final_count - now * now;
      if (ctx_.cardinality == Cardinality::kPartial) {
        return cells * metric_.MaxTerm();
      }
      double r = static_cast<double>(remaining);
      return (cells - r) * metric_.MaxTerm() + ctx_.max_diag_suffix[k];
    }
    if (ctx_.cardinality == Cardinality::kPartial) {
      return static_cast<double>(remaining) * metric_.MaxTerm();
    }
    return ctx_.max_diag_suffix[k];
  }

  // Admissible lower bound on the additional sum that *must* accrue from
  // depth `k` (minimization; 0 under partial where skipping is free).
  double LowerBoundFrom(size_t k) const { return ctx_.min_diag_suffix[k]; }

  bool Improves(double sum) const {
    if (!has_best_) return true;
    return metric_.maximize() ? sum > best_sum_ : sum < best_sum_;
  }

  void RecordIfBetter(double sum) {
    if (Improves(sum)) {
      has_best_ = true;
      best_sum_ = sum;
      best_pairs_ = assigned_;
      if (shared_bound_ != nullptr) shared_bound_->Publish(sum);
    }
  }

  void Dfs(size_t k, double sum) {
    if (budget_exhausted_) return;
    if (k == ctx_.order.size()) {
      RecordIfBetter(sum);
      return;
    }
    // Prune against the local incumbent (ties included, as in the serial
    // search)...
    if (has_best_) {
      if (metric_.maximize()) {
        if (sum + UpperBoundFrom(k) <= best_sum_) return;
      } else {
        // Every Euclidean increment is >= 0, and at least the best-case
        // diagonal terms of all unassigned sources must still accrue.
        if (sum + LowerBoundFrom(k) >= best_sum_) return;
      }
    }
    // ...and strictly against the shared cross-branch bound, so a subtree
    // that could still tie the published best is never cut (see
    // SharedBound).
    if (shared_bound_ != nullptr) {
      double bound = shared_bound_->Load();
      if (metric_.maximize()) {
        if (sum + UpperBoundFrom(k) < bound) return;
      } else {
        if (sum + LowerBoundFrom(k) > bound) return;
      }
    }
    size_t s = ctx_.order[k];
    for (size_t t : ctx_.candidates[s]) {
      if (used_[t]) continue;
      if (++nodes_explored_ > node_budget_) {
        budget_exhausted_ = true;
        return;
      }
      double gain =
          ctx_.kernel.GainOf(assigned_.data(), assigned_.size(), s, t);
      // Cheap per-child pruning for minimization.
      if (!metric_.maximize() && has_best_ &&
          sum + gain + LowerBoundFrom(k + 1) >= best_sum_) {
        continue;
      }
      used_[t] = 1;
      assigned_.push_back({s, t});
      Dfs(k + 1, sum + gain);
      assigned_.pop_back();
      used_[t] = 0;
      if (budget_exhausted_) return;
    }
    if (ctx_.cardinality == Cardinality::kPartial) {
      // Leave s unmatched.
      Dfs(k + 1, sum);
    }
  }

  const SearchContext& ctx_;
  const Metric& metric_;
  uint64_t node_budget_;
  SharedBound* shared_bound_;

  std::vector<char> used_;
  std::vector<MatchPair> assigned_;
  std::vector<MatchPair> best_pairs_;
  double best_sum_ = 0.0;
  bool has_best_ = false;
  uint64_t nodes_explored_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace

Result<MatchResult> ExhaustiveMatch(const DependencyGraph& source,
                                    const DependencyGraph& target,
                                    const MatchOptions& options) {
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

  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);

  // Process high-entropy sources first: their labels vary most, which
  // tightens bounds early.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return source.entropy(x) > source.entropy(y);
  });

  ScoreKernel kernel(source, target, metric);
  SearchContext ctx(kernel, options.cardinality, candidates, order);

  // For the exact cardinalities, check feasibility of the filtered space
  // up front and seed the search with the feasible assignment found, so
  // that (a) infeasible filters fail in O(n * m) instead of by exhaustive
  // enumeration and (b) pruning is active from the first search node.
  std::optional<std::vector<MatchPair>> incumbent;
  double incumbent_sum = 0.0;
  if (options.cardinality != Cardinality::kPartial) {
    std::optional<std::vector<size_t>> assignment =
        FindFeasibleAssignment(candidates, m);
    if (!assignment.has_value()) {
      return NotFoundError(
          "candidate filter admits no complete injective assignment; "
          "widen candidates_per_attribute");
    }
    incumbent.emplace();
    for (size_t s = 0; s < n; ++s) {
      incumbent->push_back({s, (*assignment)[s]});
    }
    incumbent_sum = kernel.EvaluateSum(*incumbent);
  }

  bool partial = options.cardinality == Cardinality::kPartial;

  // Parallel mode: one independent Search per root-level branch (each
  // candidate of order[0], plus the skip branch under partial), sharing
  // only the atomic incumbent bound. The node budget is split evenly
  // across branches so budget accounting is scheduling-independent.
  std::vector<std::optional<size_t>> branches;
  if (options.num_threads > 1) {
    for (size_t t : candidates[order[0]]) branches.push_back(t);
    if (partial) branches.push_back(std::nullopt);
  }
  if (branches.size() > 1) {
    SharedBound shared(metric.maximize(),
                       partial ? 0.0 : incumbent_sum);
    uint64_t per_branch_budget = std::max<uint64_t>(
        1, options.max_search_nodes / branches.size());
    struct BranchOutcome {
      bool has_best = false;
      double best_sum = 0.0;
      std::vector<MatchPair> best_pairs;
      uint64_t nodes_explored = 0;
      bool budget_exhausted = false;
    };
    std::vector<BranchOutcome> outcomes(branches.size());
    ThreadPool::ParallelForWithWorker(
        options.num_threads, branches.size(),
        [&](size_t /*worker*/, size_t i) {
          Search search(ctx, per_branch_budget, &shared);
          if (incumbent.has_value()) {
            search.SeedIncumbent(*incumbent, incumbent_sum);
          }
          BranchOutcome& out = outcomes[i];
          out.has_best = search.RunBranch(branches[i]);
          out.best_sum = search.best_sum();
          out.best_pairs = search.best_pairs();
          out.nodes_explored = search.nodes_explored();
          out.budget_exhausted = search.budget_exhausted();
        });
    // Deterministic reduction in branch order: strictly better wins, ties
    // keep the earliest branch — exactly the solution the serial DFS
    // would have recorded first.
    size_t winner = branches.size();
    uint64_t total_nodes = 0;
    bool any_exhausted = false;
    for (size_t i = 0; i < branches.size(); ++i) {
      total_nodes += outcomes[i].nodes_explored;
      any_exhausted = any_exhausted || outcomes[i].budget_exhausted;
      if (!outcomes[i].has_best) continue;
      if (winner == branches.size() ||
          (metric.maximize()
               ? outcomes[i].best_sum > outcomes[winner].best_sum
               : outcomes[i].best_sum < outcomes[winner].best_sum)) {
        winner = i;
      }
    }
    if (winner == branches.size()) {
      return NotFoundError(
          "candidate filter admits no complete injective assignment; widen "
          "candidates_per_attribute");
    }
    result.pairs = std::move(outcomes[winner].best_pairs);
    std::sort(result.pairs.begin(), result.pairs.end());
    result.metric_value = metric.Finalize(outcomes[winner].best_sum);
    result.nodes_explored = total_nodes;
    result.budget_exhausted = any_exhausted;
    return result;
  }

  Search search(ctx, options.max_search_nodes, nullptr);
  if (incumbent.has_value()) {
    search.SeedIncumbent(*incumbent, incumbent_sum);
  }
  bool found = search.Run();
  if (!found) {
    return NotFoundError(
        "candidate filter admits no complete injective assignment; widen "
        "candidates_per_attribute");
  }

  result.pairs = search.best_pairs();
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Finalize(search.best_sum());
  result.nodes_explored = search.nodes_explored();
  result.budget_exhausted = search.budget_exhausted();
  return result;
}

}  // namespace depmatch
