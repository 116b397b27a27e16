// depmatch-lint: bit-identical-file
// Results are bit-identical at any thread count: every floating-point
// sum in this file accumulates in a fixed, thread-independent order.
// Do not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions); the
// depmatch_analyze bit-identical rule and the tsan_stress tests enforce
// and exercise this contract.
#include "depmatch/match/annealing_matcher.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/match/candidate_filter.h"
#include "depmatch/match/greedy_matcher.h"
#include "depmatch/match/metric.h"
#include "depmatch/match/score_kernel.h"

namespace depmatch {
namespace {

constexpr size_t kUnassigned = ScoreState::kUnassigned;

struct RestartOutcome {
  double best_sum = 0.0;
  std::vector<MatchPair> best_pairs;
  uint64_t moves_tried = 0;
};

// One annealing run over the shared kernel, seeded with `seed`. The move
// proposal / acceptance sequence is identical to the historical
// implementation; only the mechanics changed (allocation-free ScoreState
// deltas, O(1) owner lookup, fixed-size undo stacks).
RestartOutcome RunRestart(const ScoreKernel& kernel,
                          const std::vector<std::vector<size_t>>& candidates,
                          const std::vector<char>& allowed,
                          const std::vector<MatchPair>& start,
                          const AnnealingParams& params, uint64_t seed,
                          bool partial) {
  size_t n = kernel.source_size();
  size_t m = kernel.target_size();
  bool maximize = kernel.maximize();
  auto better = [maximize](double candidate, double incumbent) {
    return maximize ? candidate > incumbent : candidate < incumbent;
  };

  ScoreState state(kernel);
  for (const MatchPair& pair : start) {
    state.Assign(pair.source, pair.target);
  }

  RestartOutcome out;
  out.best_sum = state.sum();
  state.AppendPairs(&out.best_pairs);

  // A move touches at most two sources, so the undo stacks never exceed
  // two entries each.
  size_t undo_assign_s[2];
  size_t undo_assign_t[2];
  size_t undo_unassign[2];

  Rng rng(seed);
  for (double temperature = params.initial_temperature;
       temperature > params.final_temperature;
       temperature *= params.cooling_rate) {
    for (size_t step = 0; step < params.moves_per_node * n; ++step) {
      ++out.moves_tried;
      size_t s1 = rng.NextBounded(n);
      const std::vector<size_t>& cand = candidates[s1];
      if (cand.empty()) continue;
      size_t t_new = cand[rng.NextBounded(cand.size())];
      size_t t_old = state.target_of(s1);

      double before = state.sum();
      size_t num_undo_assign = 0;
      size_t num_undo_unassign = 0;

      if (t_old == t_new) {
        if (!partial) continue;
        // Toggle: drop s1 (partial only).
        state.Unassign(s1);
        undo_assign_s[num_undo_assign] = s1;
        undo_assign_t[num_undo_assign++] = t_old;
      } else if (!state.target_used(t_new)) {
        // Reassign (or fresh assign) s1 -> t_new.
        if (t_old != kUnassigned) {
          state.Unassign(s1);
          undo_assign_s[num_undo_assign] = s1;
          undo_assign_t[num_undo_assign++] = t_old;
        }
        state.Assign(s1, t_new);
        undo_unassign[num_undo_unassign++] = s1;
      } else {
        // Swap with the owner of t_new, if mutually legal.
        size_t s2 = state.source_of(t_new);
        if (s2 == s1) continue;
        if (t_old == kUnassigned) {
          // s1 unmatched: steal t_new, leaving s2 unmatched (partial) or
          // illegal (exact cardinalities).
          if (!partial) continue;
          state.Unassign(s2);
          undo_assign_s[num_undo_assign] = s2;
          undo_assign_t[num_undo_assign++] = t_new;
          state.Assign(s1, t_new);
          undo_unassign[num_undo_unassign++] = s1;
        } else {
          if (!allowed[s2 * m + t_old]) continue;
          state.Unassign(s1);
          undo_assign_s[num_undo_assign] = s1;
          undo_assign_t[num_undo_assign++] = t_old;
          state.Unassign(s2);
          undo_assign_s[num_undo_assign] = s2;
          undo_assign_t[num_undo_assign++] = t_new;
          state.Assign(s1, t_new);
          undo_unassign[num_undo_unassign++] = s1;
          state.Assign(s2, t_old);
          undo_unassign[num_undo_unassign++] = s2;
        }
      }

      double delta = state.sum() - before;
      double improvement = maximize ? delta : -delta;
      bool accept = improvement > 0.0 ||
                    rng.NextDouble() < std::exp(improvement / temperature);
      if (!accept) {
        // Roll back in reverse order of application.
        for (size_t i = num_undo_unassign; i > 0; --i) {
          state.Unassign(undo_unassign[i - 1]);
        }
        for (size_t i = num_undo_assign; i > 0; --i) {
          state.Assign(undo_assign_s[i - 1], undo_assign_t[i - 1]);
        }
        continue;
      }
      if (better(state.sum(), out.best_sum)) {
        out.best_sum = state.sum();
        state.AppendPairs(&out.best_pairs);
      }
    }
  }
  return out;
}

}  // namespace

Result<MatchResult> AnnealingMatch(const DependencyGraph& source,
                                   const DependencyGraph& target,
                                   const MatchOptions& options,
                                   const AnnealingParams& params) {
  Metric metric(options.metric, options.alpha);
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
  MatchResult result;
  result.metric = options.metric;
  if (n == 0) {
    result.metric_value = metric.Finalize(0.0);
    return result;
  }

  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);

  // Start from the greedy solution; if greedy strands itself inside the
  // candidate filter (its one-pass commitment can leave a later source
  // without free candidates), fall back to any feasible assignment from
  // bipartite matching. NotFound only if the filter truly admits none.
  std::vector<MatchPair> start;
  Result<MatchResult> greedy = GreedyMatch(source, target, options);
  if (greedy.ok()) {
    start = greedy->pairs;
  } else if (greedy.status().code() == StatusCode::kNotFound) {
    std::optional<std::vector<size_t>> feasible =
        FindFeasibleAssignment(candidates, m);
    if (!feasible.has_value()) return greedy.status();
    for (size_t s = 0; s < n; ++s) start.push_back({s, (*feasible)[s]});
  } else {
    return greedy.status();
  }
  // allowed[s * m + t] for O(1) swap legality checks.
  std::vector<char> allowed(n * m, 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t : candidates[s]) allowed[s * m + t] = 1;
  }

  ScoreKernel kernel(source, target, metric);
  bool partial = options.cardinality == Cardinality::kPartial;
  bool maximize = metric.maximize();

  // Restart portfolio: independent runs seeded seed + r, distributed over
  // the pool. Each outcome lands in its own slot, so the reduction below
  // sees the same values at any thread count.
  size_t restarts = std::max<size_t>(1, params.num_restarts);
  std::vector<RestartOutcome> outcomes(restarts);
  ThreadPool::ParallelForWithWorker(
      options.num_threads, restarts,
      [&](size_t /*worker*/, size_t r) {
        outcomes[r] = RunRestart(kernel, candidates, allowed, start, params,
                                 params.seed + r, partial);
      });

  // Winner by (score, seed): strictly better wins, ties keep the earliest
  // seed. Deterministic regardless of scheduling.
  size_t winner = 0;
  uint64_t moves_tried = outcomes[0].moves_tried;
  for (size_t r = 1; r < restarts; ++r) {
    moves_tried += outcomes[r].moves_tried;
    bool better = maximize ? outcomes[r].best_sum > outcomes[winner].best_sum
                           : outcomes[r].best_sum < outcomes[winner].best_sum;
    if (better) winner = r;
  }

  result.pairs = std::move(outcomes[winner].best_pairs);
  std::sort(result.pairs.begin(), result.pairs.end());
#ifndef NDEBUG
  // Delta-kernel self-check: the incrementally maintained sum must agree
  // with a from-scratch evaluation (catches future delta-kernel bugs).
  double full_sum = metric.EvaluateSum(source, target, result.pairs);
  DEPMATCH_CHECK(std::fabs(outcomes[winner].best_sum - full_sum) <= 1e-6)
      << "annealing delta sum " << outcomes[winner].best_sum
      << " diverged from full evaluation " << full_sum;
#endif
  // Recompute from scratch to shed accumulated floating-point drift.
  result.metric_value = metric.Evaluate(source, target, result.pairs);
  result.nodes_explored = moves_tried;
  return result;
}

}  // namespace depmatch
