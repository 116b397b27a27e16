// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// pair_match: the paper's own use. One caller, closed loop: each op
// reads a source and a target CSV and runs MatchTables with the paper's
// method (exhaustive search, MI-Euclidean, one-to-one, 3 candidates per
// attribute). Ops cycle in a seeded order over 12 lab-half pairs and 4
// census NY/CA pairs of 5,000 rows x 30 attributes whose target columns
// are permuted, renamed, and opaquely re-encoded. No catalog or service
// code runs.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <utility>

#include "checks.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/core/schema_matcher.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/table/csv.h"
#include "inputs.h"
#include "workloads.h"

namespace depbench {
namespace {

using depmatch::SchemaMatchResult;
using depmatch::StrFormat;
using depmatch::Table;

// The exhaustive search's node budget. At the library default (200M
// nodes) some 30-attribute lab subsets search for 5-7 s, so one op would
// set a run's whole tail. At 500K nodes (~30 ms on the reference host)
// about half the lab ops hit the budget and return the best mapping
// found, deterministically; precision is within a point of 2M nodes'.
constexpr uint64_t kNodeBudget = 500'000;

depmatch::SchemaMatchOptions PaperMethod() {
  depmatch::SchemaMatchOptions options;
  options.match.algorithm = depmatch::MatchAlgorithm::kExhaustive;
  options.match.metric = depmatch::MetricKind::kMutualInfoEuclidean;
  options.match.cardinality = depmatch::Cardinality::kOneToOne;
  options.match.candidates_per_attribute = 3;
  options.match.max_search_nodes = kNodeBudget;
  return options;
}

struct OpResult {
  size_t pair = 0;
  double ms = 0.0;
  Clock::time_point done;
  bool ok = false;
  SchemaMatchResult result;
};

class PairMatch {
 public:
  PairMatch(const RunConfig& config, Tracer& tracer, RunReport& report)
      : config_(config), tracer_(tracer), report_(report) {}

  void Run();

 private:
  // One op: ReadCsvFile x2 + MatchTables. Traced ops record spans and
  // replay MatchTables as its public pieces.
  OpResult RunOp(size_t op_id, size_t pair, bool traced);
  // BuildDependencyGraph x2 + MatchGraphs, checked bit-for-bit against
  // the top-level call. Returns the pieces' total time.
  double Replay(const Table& source, const Table& target,
                const SchemaMatchResult& top, uint64_t op_id, uint64_t parent,
                bool record);
  // Closed loop over the seeded pair order for `seconds`.
  std::vector<OpResult> Loop(double seconds, bool traced);

  const RunConfig& config_;
  Tracer& tracer_;
  RunReport& report_;
  std::vector<MatchPairFiles> pairs_;
  std::vector<size_t> order_;
  size_t next_op_ = 0;
  LayerCounters counters_;
};

void PairMatch::Run() {
  MatchPairShape shape;
  if (config_.smoke) shape = {2, 1, 400, 8};

  AddSetupTime(report_, [&] { pairs_ = WriteMatchPairs(config_.workdir, config_.seed, shape); });

  order_.resize(pairs_.size());
  std::iota(order_.begin(), order_.end(), size_t{0});
  depmatch::Rng(config_.seed ^ 0x0DE7u).Shuffle(order_);

  if (config_.trace) {
    std::vector<OpResult> plain = Loop(config_.seconds * kUntracedShare, false);
    std::vector<OpResult> traced =
        Loop(config_.seconds * (1.0 - kUntracedShare), true);
    std::vector<double> plain_ms, traced_ms;
    for (const OpResult& op : plain) plain_ms.push_back(op.ms);
    for (const OpResult& op : traced) traced_ms.push_back(op.ms);
    counters_.untraced_p50_ms = Median(plain_ms);
    counters_.traced_p50_ms = Median(traced_ms);
    report_.CountOps(plain.size() + traced.size(), 0);
    AddLayerMetrics(tracer_, counters_, report_);
    return;
  }

  Clock::time_point start = Clock::now();
  std::vector<OpResult> ops = Loop(config_.seconds, false);

  uint64_t failed = 0;
  std::vector<double> all_ms, census_ms;
  std::vector<Clock::time_point> done;
  // The first result of each pair is its reference: every later op on
  // the same pair must reproduce it, and the replay gate checks it.
  std::vector<const OpResult*> first(pairs_.size(), nullptr);
  for (const OpResult& op : ops) {
    if (!op.ok) {
      ++failed;
      continue;
    }
    all_ms.push_back(op.ms);
    done.push_back(op.done);
    if (pairs_[op.pair].census) census_ms.push_back(op.ms);
    if (first[op.pair] == nullptr) {
      first[op.pair] = &op;
    } else if (!SameMatch(op.result.match, first[op.pair]->result.match)) {
      report_.Fail(StrFormat("pair %zu: repeated MatchTables differ", op.pair));
    }
  }
  report_.CountOps(ops.size(), failed);
  if (failed > 0) report_.Fail(StrFormat("%llu MatchTables ops failed",
                                         static_cast<unsigned long long>(failed)));

  // Gate: each pair's MatchTables equals its replay as public pieces, and
  // precision is computed per pair against the known permutation.
  size_t correct = 0, total = 0;
  for (size_t p = 0; p < pairs_.size(); ++p) {
    if (first[p] == nullptr) {
      report_.Fail(StrFormat("pair %zu never ran; run longer", p));
      continue;
    }
    Table source = depmatch::ReadCsvFile(pairs_[p].source_csv, {}).value();
    Table target = depmatch::ReadCsvFile(pairs_[p].target_csv, {}).value();
    Replay(source, target, first[p]->result, 0, 0, false);
    correct += CorrectPairs(first[p]->result.match.pairs, pairs_[p].permutation);
    total += pairs_[p].permutation.size();
  }

  report_.Add("peak_rss_mb", PeakRssMb(), "MB");
  report_.AddPercentile("op_p50_ms", all_ms, 50.0);
  report_.AddPercentile("op_tail_ms", all_ms, config_.tail_pct());
  report_.AddPercentile("op2_p50_ms", census_ms, 50.0);
  // Rated over whole cycles of the pair order, so every run of
  // completions holds the same mix of lab and census ops.
  report_.Add("ops_per_s", MedianRatePerS(done, start, pairs_.size()), "1/s", all_ms.size());
  report_.Add("match_precision",
              total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                        : 0.0,
              "ratio", pairs_.size());
}

std::vector<OpResult> PairMatch::Loop(double seconds, bool traced) {
  std::vector<OpResult> ops;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // Smoke runs cover every pair at least once whatever the clock says.
  const size_t min_ops = config_.smoke ? pairs_.size() : 1;
  CpuRotation cpus;
  while (ops.size() < min_ops || Clock::now() < deadline) {
    cpus.Next();
    size_t op_id = next_op_++;
    ops.push_back(RunOp(op_id + 1, order_[op_id % order_.size()], traced));
  }
  return ops;
}

OpResult PairMatch::RunOp(size_t op_id, size_t pair, bool traced) {
  Tracer& tracer = traced ? tracer_ : DisabledTracer();
  OpResult op;
  op.pair = pair;
  const MatchPairFiles& files = pairs_[pair];
  Span root(tracer, "pair_match.op", Layer::kOp, op_id);

  Span read_source(tracer, "table.read_csv", Layer::kTable, op_id, root.id());
  depmatch::Result<Table> source = depmatch::ReadCsvFile(files.source_csv, {});
  double source_ms = read_source.End();
  Span read_target(tracer, "table.read_csv", Layer::kTable, op_id, root.id());
  depmatch::Result<Table> target = depmatch::ReadCsvFile(files.target_csv, {});
  double target_ms = read_target.End();
  if (!source.ok() || !target.ok()) return op;

  Span match(tracer, "core.match_tables", Layer::kCore, op_id, root.id());
  depmatch::Result<SchemaMatchResult> result =
      depmatch::MatchTables(*source, *target, PaperMethod());
  double match_ms = match.End();
  op.ms = root.End();
  op.done = Clock::now();
  if (!result.ok()) return op;
  op.ok = true;
  op.result = *std::move(result);

  if (traced) {
    counters_.csv_ms += source_ms + target_ms;
    counters_.csv_bytes +=
        static_cast<double>(std::filesystem::file_size(files.source_csv) +
                            std::filesystem::file_size(files.target_csv));
    double pieces_ms =
        Replay(*source, *target, op.result, op_id, match.id(), true);
    counters_.coverage.push_back(pieces_ms / match_ms);
  }
  return op;
}

double PairMatch::Replay(const Table& source, const Table& target,
                         const SchemaMatchResult& top, uint64_t op_id,
                         uint64_t parent, bool record) {
  Tracer& tracer = record ? tracer_ : DisabledTracer();
  const depmatch::SchemaMatchOptions options = PaperMethod();

  Span build_source(tracer, "graph.build", Layer::kGraph, op_id, parent);
  depmatch::Result<depmatch::DependencyGraph> gs =
      depmatch::BuildDependencyGraph(source, options.graph);
  const double source_ms = build_source.End();
  Span build_target(tracer, "graph.build", Layer::kGraph, op_id, parent);
  depmatch::Result<depmatch::DependencyGraph> gt =
      depmatch::BuildDependencyGraph(target, options.graph);
  const double target_ms = build_target.End();
  const double build_ms = source_ms + target_ms;
  if (!gs.ok() || !gt.ok()) {
    report_.Fail("replay: BuildDependencyGraph failed");
    return build_ms;
  }

  Span graphmatch(tracer, "match.graphmatch", Layer::kMatch, op_id, parent);
  depmatch::Result<depmatch::MatchResult> m =
      depmatch::MatchGraphs(*gs, *gt, options.match);
  double match_ms = graphmatch.End();
  if (!m.ok() || !SameGraph(*gs, top.source_graph) ||
      !SameGraph(*gt, top.target_graph) || !SameMatch(*m, top.match)) {
    report_.Fail("replay as BuildDependencyGraph x2 + MatchGraphs differs from MatchTables");
    return build_ms + match_ms;
  }

  if (record) {
    counters_.AddGraphWork(source, source_ms);
    counters_.AddGraphWork(target, target_ms);
    counters_.graphmatch_calls += 1;
    counters_.nodes_explored += static_cast<double>(m->nodes_explored);
    counters_.budget_exhausted += m->budget_exhausted ? 1.0 : 0.0;
  }
  return build_ms + match_ms;
}

}  // namespace

void RunPairMatch(const RunConfig& config, Tracer& tracer, RunReport& report) {
  PairMatch(config, tracer, report).Run();
}

}  // namespace depbench
