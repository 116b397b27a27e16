// depmatch-lint: bit-identical-file
// Catalog search promises a top-k ranking that is bit-identical at any
// thread count, with or without the tiered index, and identical to the
// brute-force all-pairs ranking. The proof depends on (a) every
// per-entry key being computed by one GraphMatch call with fixed
// accumulation order, and (b) entries (or whole index subtrees) being
// pruned only when their admissible bound is *strictly* below the
// running k-th best completed key. Do not introduce constructs that
// reorder double accumulation (std::reduce, atomic floating adds,
// OpenMP reductions), and keep the shared threshold monotone.
#include "depmatch/core/graph_catalog.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_annotations.h"
#include "depmatch/common/thread_pool.h"

namespace depmatch {
namespace {

// Best achievable term of pairing source value `x` against any value of
// the sorted-ascending array (best = max when the metric is maximized,
// min when minimized). Both term families are unimodal in the target
// value y for fixed x — Euclidean (x-y)^2 strictly decreases below x and
// increases above it, and the normal term 1 - alpha*|x-y|/(x+y) is
// increasing in y below x and decreasing above (for x, y >= 0) — so the
// optimum over a sorted array is attained at one of the two neighbors of
// x, found by binary search. (For minimized metrics the same two
// neighbors bracket the minimum.)
double BestTermAgainst(const Metric& metric, double x, const double* ascending,
                       size_t length) {
  if (length == 0) return 0.0;
  const double* end = ascending + length;
  const double* hi = std::lower_bound(ascending, end, x);
  bool maximize = metric.maximize();
  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
  if (hi != end) {
    best = metric.Term(x, *hi);
  }
  if (hi != ascending) {
    double term = metric.Term(x, *(hi - 1));
    if (maximize ? term > best : term < best) best = term;
  }
  return best;
}

// Bounded-size min-heap of the best completed ranking keys, publishing
// the k-th best through an atomic that reads without taking the heap's
// lock. The threshold only ever increases, so a prune decision made
// against a stale (lower) threshold is merely conservative — never
// wrong.
// std::atomic<double> is intentionally avoided (and lint-banned in this
// file): the double's bit pattern rides in a uint64_t instead.
class SharedTopK {
 public:
  explicit SharedTopK(size_t k)
      : k_(k),
        threshold_bits_(
            std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity())) {}

  void Submit(double key) DEPMATCH_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) {
      heap_.push(key);
    } else if (key > heap_.top()) {
      heap_.pop();
      heap_.push(key);
    }
    if (heap_.size() == k_) {
      threshold_bits_.store(std::bit_cast<uint64_t>(heap_.top()),
                            std::memory_order_release);
    }
  }

  // -inf until k entries have completed, then the k-th best key so far.
  double Threshold() const {
    return std::bit_cast<double>(
        threshold_bits_.load(std::memory_order_acquire));
  }

 private:
  const size_t k_;
  std::mutex mu_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_
      DEPMATCH_GUARDED_BY(mu_);
  std::atomic<uint64_t> threshold_bits_;
};

bool EntryCompatible(Cardinality cardinality, size_t query_width,
                     size_t entry_width) {
  switch (cardinality) {
    case Cardinality::kOneToOne:
      return entry_width == query_width;
    case Cardinality::kOnto:
      return entry_width >= query_width;
    case Cardinality::kPartial:
      return true;
  }
  return true;
}

}  // namespace

Status GraphCatalog::Insert(std::string name, DependencyGraph graph) {
  const std::unordered_map<std::string, size_t>* slots = slot_by_name_.get();
  if (slots != nullptr && slots->count(name) > 0) {
    return AlreadyExistsError(
        StrFormat("catalog already holds a graph named '%s'", name.c_str()));
  }
  GraphSignature signature(graph);
  slot_by_name_.Mutable().emplace(name, entries_.size());
  entries_.push_back(std::make_shared<const Entry>(
      Entry{std::move(name), std::move(graph), std::move(signature)}));
  // The tiered index covers a frozen entry set; a new entry invalidates
  // it rather than risking a stale (non-dominating) envelope.
  index_.Reset();
  return OkStatus();
}

Status GraphCatalog::UpdateEntry(std::string_view name, DependencyGraph graph,
                                 const CatalogIndexOptions& index_options) {
  Result<size_t> slot = Find(name);
  if (!slot.ok()) return slot.status();
  GraphSignature signature(graph);
  entries_[*slot] = std::make_shared<const Entry>(
      Entry{std::string(name), std::move(graph), std::move(signature)});
  if (index_.get() != nullptr &&
      !index_.Mutable().UpdateEntry(*slot, entries_[*slot]->signature,
                                    index_options)) {
    // The entry is not covered by the index (stale or partial build);
    // drop the index rather than risk a non-dominating envelope.
    index_.Reset();
  }
  return OkStatus();
}

Result<size_t> GraphCatalog::Find(std::string_view name) const {
  const std::unordered_map<std::string, size_t>* slots = slot_by_name_.get();
  if (slots != nullptr) {
    auto it = slots->find(std::string(name));
    if (it != slots->end()) return it->second;
  }
  return NotFoundError(
      StrFormat("no catalog entry named '%s'", std::string(name).c_str()));
}

void GraphCatalog::BuildIndex(const CatalogIndexOptions& options) {
  std::vector<const GraphSignature*> signatures;
  signatures.reserve(entries_.size());
  for (const std::shared_ptr<const Entry>& entry : entries_) {
    signatures.push_back(&entry->signature);
  }
  index_.Reset(CatalogTieredIndex::Build(signatures, options));
}

double CatalogEntryBound(const GraphSignature& query,
                         const GraphSignature& entry, const Metric& metric,
                         Cardinality cardinality) {
  size_t n = query.size();
  size_t m = entry.size();
  bool maximize = metric.maximize();
  if (n == 0 || m == 0) {
    // Nothing can be matched; the only achievable sum is the empty one.
    return AdmissibleBoundSlack(maximize ? 0.0 : -metric.Finalize(0.0));
  }
  if (cardinality == Cardinality::kPartial && !maximize) {
    // A minimized (monotonic) metric admits the empty mapping at sum 0,
    // which is already its optimum — the bound is exact but vacuous.
    return AdmissibleBoundSlack(-metric.Finalize(0.0));
  }
  bool partial = cardinality == Cardinality::kPartial;
  bool structural = metric.structural();
  size_t query_profile = query.profile_length();
  size_t entry_profile = entry.profile_length();
  double total = 0.0;
  for (size_t s = 0; s < n; ++s) {
    double hs = query.entropy(s);
    const double* profile = query.ProfileDesc(s);
    // Relaxation: each query node independently picks its best entry
    // node, and each of its off-diagonal MI values independently pairs
    // with the closest-to-optimal value of that entry row — distinctness
    // constraints are dropped, so the result can only overestimate
    // (maximize) / underestimate (minimize) the reachable sum.
    double best_row = maximize ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < m; ++t) {
      double row = metric.Term(hs, entry.entropy(t));
      if (structural) {
        const double* ascending = entry.ProfileAsc(t);
        for (size_t idx = 0; idx < query_profile; ++idx) {
          double term =
              BestTermAgainst(metric, profile[idx], ascending, entry_profile);
          // Under partial cardinality a negative cross term can always
          // be avoided by leaving the other endpoint unmatched.
          if (partial && term < 0.0) term = 0.0;
          row += term;
        }
      }
      if (maximize ? row > best_row : row < best_row) best_row = row;
    }
    // Under partial cardinality the node itself may stay unmatched,
    // contributing nothing.
    if (partial && best_row < 0.0) best_row = 0.0;
    total += best_row;
  }
  return AdmissibleBoundSlack(maximize ? total : -metric.Finalize(total));
}

std::string CatalogSearchStats::ToString() const {
  return StrFormat(
      "total=%zu incompatible=%zu pruned=%zu searched=%zu bounds=%zu"
      " cluster_bounds=%zu",
      entries_total, entries_incompatible, entries_pruned, entries_searched,
      bound_evaluations, cluster_bound_evaluations);
}

namespace {

// One item of the best-first frontier: an index subtree or a single
// entry, keyed by its admissible bound.
struct FrontierItem {
  double bound;
  bool is_entry;
  size_t id;  // entry id when is_entry, node id otherwise
};

// priority_queue keeps the *highest* priority at top with a
// "lower-priority-than" comparator. Ties break deterministically:
// entries before subtrees, then smaller id.
struct LowerPriority {
  bool operator()(const FrontierItem& a, const FrontierItem& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.is_entry != b.is_entry) return b.is_entry;
    return a.id > b.id;
  }
};

std::vector<uint8_t> CompatibleEntries(const CatalogEntryView& view,
                                       Cardinality cardinality,
                                       size_t query_width) {
  std::vector<uint8_t> compatible(view.count(), 0);
  for (size_t e = 0; e < compatible.size(); ++e) {
    compatible[e] =
        EntryCompatible(cardinality, query_width, view.width(e)) ? 1 : 0;
  }
  return compatible;
}

// Prefix sums of `compatible` over the index's entry order, so a subtree
// counts its compatible members in O(1). Empty without an index.
std::vector<size_t> CompatPrefix(const CatalogTieredIndex* index,
                                 const std::vector<uint8_t>& compatible) {
  if (index == nullptr) return {};
  const std::vector<size_t>& order = index->entry_order();
  std::vector<size_t> prefix(order.size() + 1, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<size_t>(compatible[order[i]]);
  }
  return prefix;
}

// The best-first top-k search behind SearchCatalogView, shared by its
// workers. Every frontier step (the prune test, expanding a subtree in
// place, taking an entry) happens under mu_, so entries are taken in one
// deterministic order at any thread count; only the entries' graph loads
// and GraphMatch calls run outside the lock, and those overlap.
class FrontierSearch {
 public:
  // Seeds the frontier: the root subtree when `index` is non-null (the
  // tiered descent), else every compatible entry keyed by its bound, or
  // by +inf with the prefilter off (the flat pass).
  FrontierSearch(const DependencyGraph& query, const CatalogEntryView& view,
                 const CatalogTieredIndex* index,
                 const CatalogSearchOptions& options);
  // Workers hold its address.
  FrontierSearch(const FrontierSearch&) = delete;
  FrontierSearch& operator=(const FrontierSearch&) = delete;

  size_t num_compatible() const { return num_compatible_; }

  // One worker: takes frontier items until the frontier is empty, its top
  // bound falls strictly below the top-k threshold, or an entry failed.
  void Work() DEPMATCH_EXCLUDES(mu_);

  // After every worker has returned: the top-k ranking, or the failure
  // of the entry taken first.
  Result<CatalogSearchResult> TakeRanking() DEPMATCH_EXCLUDES(mu_);

 private:
  struct Failure {
    size_t position;  // order in which the entry was taken
    size_t entry;
    Status status;
  };

  // Pushes subtree `node` with its envelope bound, unless it holds no
  // compatible entry.
  void PushSubtree(size_t node) DEPMATCH_REQUIRES(mu_);
  // Pushes a subtree's children, or a leaf's compatible entries with
  // their entry bounds, stopping at an entry whose signature fails.
  void Expand(size_t node) DEPMATCH_REQUIRES(mu_);
  // Entry `e`'s admissible bound, or nullopt when its signature cannot be
  // read. That failure is recorded at the position the next entry would
  // be taken, which stops the hand-out as a failed match does.
  std::optional<double> EntryBound(size_t e) DEPMATCH_REQUIRES(mu_);
  // Records entry `e`'s failure unless one taken earlier failed too, and
  // wakes every waiter so the hand-out stops.
  void Fail(size_t position, size_t e, Status status) DEPMATCH_REQUIRES(mu_);
  // No speculation past k: until k entries have completed the threshold
  // is -inf, and the first k entries taken are exactly the ones a 1-thread
  // search matches before it can prune anything. A worker takes nothing
  // beyond them until they complete. Without the prefilter nothing is
  // pruned, so nobody waits.
  bool MustWait() const DEPMATCH_REQUIRES(mu_);
  // Loads entry `e` and matches it against the query (no lock held).
  Result<CatalogMatch> Match(size_t e) const;

  const DependencyGraph& query_;
  const CatalogEntryView& view_;
  const CatalogTieredIndex* const index_;
  const CatalogSearchOptions& options_;
  const Metric metric_;
  const GraphSignature query_signature_;
  const std::vector<uint8_t> compatible_;
  const size_t num_compatible_;
  const std::vector<size_t> compat_prefix_;

  std::mutex mu_;
  std::condition_variable entry_done_;
  std::priority_queue<FrontierItem, std::vector<FrontierItem>, LowerPriority>
      frontier_ DEPMATCH_GUARDED_BY(mu_);
  SharedTopK top_k_ DEPMATCH_GUARDED_BY(mu_);
  size_t taken_ DEPMATCH_GUARDED_BY(mu_) = 0;
  std::vector<CatalogMatch> ranked_ DEPMATCH_GUARDED_BY(mu_);
  std::optional<Failure> failure_ DEPMATCH_GUARDED_BY(mu_);
  CatalogSearchStats stats_ DEPMATCH_GUARDED_BY(mu_);
};

FrontierSearch::FrontierSearch(const DependencyGraph& query,
                               const CatalogEntryView& view,
                               const CatalogTieredIndex* index,
                               const CatalogSearchOptions& options)
    : query_(query),
      view_(view),
      index_(index),
      options_(options),
      metric_(options.match.metric, options.match.alpha),
      query_signature_(query),
      compatible_(
          CompatibleEntries(view, options.match.cardinality, query.size())),
      num_compatible_(static_cast<size_t>(
          std::count(compatible_.begin(), compatible_.end(), uint8_t{1}))),
      compat_prefix_(CompatPrefix(index, compatible_)),
      top_k_(options.k) {
  // No worker runs yet; the lock keeps every frontier_ access under mu_.
  std::lock_guard<std::mutex> lock(mu_);
  stats_.entries_total = compatible_.size();
  stats_.entries_incompatible = compatible_.size() - num_compatible_;
  if (index_ != nullptr) {
    PushSubtree(index_->root());
    return;
  }
  std::vector<FrontierItem> entries;
  entries.reserve(num_compatible_);
  for (size_t e = 0; e < compatible_.size(); ++e) {
    if (compatible_[e] == 0) continue;
    double bound = std::numeric_limits<double>::infinity();
    if (options_.use_prefilter) {
      std::optional<double> entry_bound = EntryBound(e);
      if (!entry_bound.has_value()) break;
      bound = *entry_bound;
    }
    entries.push_back({bound, true, e});
  }
  frontier_ = decltype(frontier_)(LowerPriority(), std::move(entries));
}

void FrontierSearch::PushSubtree(size_t node) {
  const TieredIndexNode& span = index_->node(node);
  if (compat_prefix_[span.end] == compat_prefix_[span.begin]) return;
  ++stats_.cluster_bound_evaluations;
  frontier_.push({index_->ClusterBound(node, query_signature_, metric_,
                                       options_.match.cardinality),
                  false, node});
}

void FrontierSearch::Expand(size_t node) {
  const TieredIndexNode& span = index_->node(node);
  if (span.left >= 0) {
    PushSubtree(static_cast<size_t>(span.left));
    PushSubtree(static_cast<size_t>(span.right));
    return;
  }
  const std::vector<size_t>& order = index_->entry_order();
  for (size_t i = span.begin; i < span.end; ++i) {
    size_t e = order[i];
    if (compatible_[e] == 0) continue;
    std::optional<double> bound = EntryBound(e);
    if (!bound.has_value()) return;
    frontier_.push({*bound, true, e});
  }
}

std::optional<double> FrontierSearch::EntryBound(size_t e) {
  ++stats_.bound_evaluations;
  Result<const GraphSignature*> signature = view_.signature(e);
  if (!signature.ok()) {
    Fail(taken_, e, signature.status());
    return std::nullopt;
  }
  return CatalogEntryBound(query_signature_, **signature, metric_,
                           options_.match.cardinality);
}

void FrontierSearch::Fail(size_t position, size_t e, Status status) {
  if (!failure_.has_value() || position < failure_->position) {
    failure_ = Failure{position, e, std::move(status)};
  }
  entry_done_.notify_all();
}

bool FrontierSearch::MustWait() const {
  return options_.use_prefilter && !failure_.has_value() &&
         ranked_.size() < options_.k && taken_ >= options_.k;
}

Result<CatalogMatch> FrontierSearch::Match(size_t e) const {
  Result<const DependencyGraph*> graph = view_.graph(e);
  if (!graph.ok()) return graph.status();
  Result<MatchResult> match = MatchGraphs(query_, **graph, options_.match);
  if (!match.ok()) return match.status();
  const double n = static_cast<double>(query_.size());
  CatalogMatch candidate;
  candidate.entry = e;
  candidate.name = std::string(view_.name(e));
  candidate.match = *std::move(match);
  candidate.ranking_key = metric_.maximize() ? candidate.match.metric_value
                                             : -candidate.match.metric_value;
  candidate.normalized_score =
      candidate.ranking_key / (metric_.structural() ? n * n : n);
  return candidate;
}

void FrontierSearch::Work() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    while (MustWait()) entry_done_.wait(lock);
    if (failure_.has_value() || frontier_.empty()) return;
    const FrontierItem top = frontier_.top();
    // Strict <: a bound that ties the k-th best key is never pruned, so
    // boundary ties resolve identically at every thread count and with or
    // without the index. The threshold only rises, so every item left in
    // the frontier stays below it: the search is over.
    if (top.bound < top_k_.Threshold()) return;
    frontier_.pop();
    if (!top.is_entry) {
      Expand(top.id);
      continue;
    }
    const size_t position = taken_++;
    lock.unlock();
    Result<CatalogMatch> match = Match(top.id);
    lock.lock();
    if (!match.ok()) {
      Fail(position, top.id, match.status());
      continue;
    }
    top_k_.Submit(match->ranking_key);
    ranked_.push_back(*std::move(match));
    entry_done_.notify_all();
  }
}

Result<CatalogSearchResult> FrontierSearch::TakeRanking() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failure_.has_value()) {
    const Failure& failure = *failure_;
    const std::string_view name = view_.name(failure.entry);
    return Status(failure.status.code(),
                  StrFormat("searching catalog entry %zu ('%.*s'): %s",
                            failure.entry, static_cast<int>(name.size()),
                            name.data(), failure.status.message().c_str()));
  }
  CatalogSearchResult out;
  out.stats = stats_;
  out.stats.entries_searched = ranked_.size();
  out.stats.entries_pruned = num_compatible_ - ranked_.size();
  std::sort(ranked_.begin(), ranked_.end(),
            [](const CatalogMatch& a, const CatalogMatch& b) {
              if (a.ranking_key != b.ranking_key) {
                return a.ranking_key > b.ranking_key;
              }
              return a.entry < b.entry;
            });
  if (ranked_.size() > options_.k) ranked_.resize(options_.k);
  out.ranked = std::move(ranked_);
  return out;
}

}  // namespace

Result<CatalogSearchResult> SearchCatalogView(
    const DependencyGraph& query, const CatalogEntryView& view,
    const CatalogTieredIndex* index, const CatalogSearchOptions& options) {
  if (options.k == 0) {
    return InvalidArgumentError("catalog search requires k >= 1");
  }
  if (query.size() == 0) {
    return InvalidArgumentError("catalog search requires a non-empty query");
  }
  const bool tiered = options.use_prefilter && options.use_index &&
                      index != nullptr && !index->empty() &&
                      index->num_entries() == view.count();
  FrontierSearch search(query, view, tiered ? index : nullptr, options);
  // Never more workers than compatible entries; a single worker runs on
  // this thread.
  const size_t workers = std::min(std::max<size_t>(options.num_threads, 1),
                                  search.num_compatible());
  ThreadPool::ParallelFor(workers, workers,
                          [&search](size_t) { search.Work(); });
  return search.TakeRanking();
}

namespace {

class GraphCatalogView final : public CatalogEntryView {
 public:
  explicit GraphCatalogView(const GraphCatalog& catalog) : catalog_(catalog) {}
  size_t count() const override { return catalog_.size(); }
  size_t width(size_t entry) const override {
    return catalog_.graph(entry).size();
  }
  std::string_view name(size_t entry) const override {
    return catalog_.name(entry);
  }
  Result<const GraphSignature*> signature(size_t entry) const override {
    return &catalog_.signature(entry);
  }
  Result<const DependencyGraph*> graph(size_t entry) const override {
    return &catalog_.graph(entry);
  }

 private:
  const GraphCatalog& catalog_;
};

}  // namespace

Result<CatalogSearchResult> SearchCatalog(const DependencyGraph& query,
                                          const GraphCatalog& catalog,
                                          const CatalogSearchOptions& options) {
  GraphCatalogView view(catalog);
  return SearchCatalogView(query, view, catalog.index(), options);
}

}  // namespace depmatch
