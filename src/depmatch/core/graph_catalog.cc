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
#include "depmatch/graph/graph_io.h"

namespace depmatch {
namespace {

constexpr char kCatalogMagic[4] = {'D', 'M', 'C', '1'};
constexpr uint32_t kCatalogFormatVersion = 1;
// Magic + version + entry count + checksum.
constexpr size_t kMinCatalogFileSize = 4 + 4 + 8 + 4;

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
// the k-th best through an atomic the workers read without locking. The
// threshold only ever increases, so a prune decision made against a
// stale (lower) threshold is merely conservative — never wrong.
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

Status GraphCatalog::Save(const std::string& path) const {
  std::string out;
  out.append(kCatalogMagic, sizeof(kCatalogMagic));
  graphio::AppendU32(&out, kCatalogFormatVersion);
  graphio::AppendU64(&out, static_cast<uint64_t>(entries_.size()));
  for (const std::shared_ptr<const Entry>& entry : entries_) {
    graphio::AppendU64(&out, static_cast<uint64_t>(entry->name.size()));
    out.append(entry->name);
    std::string blob = SerializeGraphBinary(entry->graph);
    graphio::AppendU64(&out, static_cast<uint64_t>(blob.size()));
    out.append(blob);
  }
  graphio::AppendU32(&out, graphio::Crc32(out));
  return graphio::WriteStringToFile(path, out);
}

Result<GraphCatalog> GraphCatalog::Load(const std::string& path) {
  std::string bytes;
  DEPMATCH_RETURN_IF_ERROR(graphio::ReadFileToString(path, &bytes));
  if (bytes.size() < kMinCatalogFileSize) {
    return InvalidArgumentError(
        StrFormat("catalog file %s too short (%zu bytes)", path.c_str(),
                  bytes.size()));
  }
  size_t crc_offset = bytes.size() - 4;
  uint32_t stored_crc = 0;
  size_t crc_cursor = crc_offset;
  if (!graphio::ReadU32(bytes, &crc_cursor, &stored_crc)) {
    return InvalidArgumentError("catalog checksum unreadable");
  }
  uint32_t actual_crc =
      graphio::Crc32(std::string_view(bytes).substr(0, crc_offset));
  if (stored_crc != actual_crc) {
    return InvalidArgumentError(
        StrFormat("catalog file %s checksum mismatch (stored %08x, computed"
                  " %08x): data corrupted or truncated",
                  path.c_str(), stored_crc, actual_crc));
  }
  size_t cursor = 0;
  if (std::string_view(bytes).substr(0, 4) !=
      std::string_view(kCatalogMagic, 4)) {
    return InvalidArgumentError(
        StrFormat("%s is not a catalog file (bad magic)", path.c_str()));
  }
  cursor = 4;
  uint32_t version = 0;
  if (!graphio::ReadU32(bytes, &cursor, &version)) {
    return InvalidArgumentError("truncated catalog file (version)");
  }
  if (version != kCatalogFormatVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported catalog format version %u (expected %u)",
                  version, kCatalogFormatVersion));
  }
  uint64_t count64 = 0;
  if (!graphio::ReadU64(bytes, &cursor, &count64)) {
    return InvalidArgumentError("truncated catalog file (entry count)");
  }
  // Every entry costs at least 16 bytes of lengths; reject counts the
  // file cannot possibly hold before reserving anything.
  if (count64 > bytes.size() / 16 + 1) {
    return InvalidArgumentError(
        StrFormat("catalog file declares %llu entries but holds %zu bytes",
                  static_cast<unsigned long long>(count64), bytes.size()));
  }
  GraphCatalog catalog;
  size_t count = static_cast<size_t>(count64);
  for (size_t i = 0; i < count; ++i) {
    uint64_t name_length = 0;
    if (!graphio::ReadU64(bytes, &cursor, &name_length) ||
        name_length > bytes.size() - cursor) {
      return InvalidArgumentError(
          StrFormat("truncated catalog file (entry %zu name)", i));
    }
    std::string name(
        std::string_view(bytes).substr(cursor,
                                       static_cast<size_t>(name_length)));
    cursor += static_cast<size_t>(name_length);
    uint64_t blob_length = 0;
    if (!graphio::ReadU64(bytes, &cursor, &blob_length) ||
        blob_length > bytes.size() - cursor) {
      return InvalidArgumentError(
          StrFormat("truncated catalog file (entry %zu graph)", i));
    }
    Result<DependencyGraph> graph = DeserializeGraphBinary(
        std::string_view(bytes).substr(cursor,
                                       static_cast<size_t>(blob_length)));
    if (!graph.ok()) {
      return Status(graph.status().code(),
                    StrFormat("catalog entry %zu ('%s'): %s", i, name.c_str(),
                              graph.status().message().c_str()));
    }
    cursor += static_cast<size_t>(blob_length);
    DEPMATCH_RETURN_IF_ERROR(
        catalog.Insert(std::move(name), *std::move(graph)));
  }
  if (cursor != crc_offset) {
    return InvalidArgumentError(
        StrFormat("catalog file has %zu trailing bytes", crc_offset - cursor));
  }
  return catalog;
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

Result<CatalogSearchResult> SearchCatalogView(
    const DependencyGraph& query, const CatalogEntryView& view,
    const CatalogTieredIndex* index, const CatalogSearchOptions& options) {
  if (options.k == 0) {
    return InvalidArgumentError("catalog search requires k >= 1");
  }
  if (query.size() == 0) {
    return InvalidArgumentError("catalog search requires a non-empty query");
  }
  const Metric metric(options.match.metric, options.match.alpha);
  const GraphSignature query_signature(query);
  const size_t n = query.size();
  const size_t count = view.count();

  CatalogSearchResult out;
  out.stats.entries_total = count;

  // Width compatibility is a cheap scan over the entry table (no graph
  // loads, no bound evaluations); on the tiered path, prefix sums over
  // the index's entry permutation let subtree pruning account for its
  // compatible members in O(1).
  std::vector<uint8_t> compatible(count, 0);
  for (size_t e = 0; e < count; ++e) {
    if (EntryCompatible(options.match.cardinality, n, view.width(e))) {
      compatible[e] = 1;
    } else {
      ++out.stats.entries_incompatible;
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> bounds(count, -kInf);
  SharedTopK shared(options.k);
  std::vector<std::optional<CatalogMatch>> slots(count);
  std::vector<Status> errors(count);
  std::vector<uint8_t> pruned(count, 0);
  const bool maximize = metric.maximize();
  const double denominator =
      metric.structural() ? static_cast<double>(n) * static_cast<double>(n)
                          : static_cast<double>(n);

  // Full GraphMatch for one entry; callable from any thread (see the
  // CatalogEntryView threading contract). Failures land in errors[e].
  auto run_entry = [&](size_t e) {
    Result<const DependencyGraph*> graph = view.graph(e);
    if (!graph.ok()) {
      errors[e] = graph.status();
      return;
    }
    Result<MatchResult> match = MatchGraphs(query, **graph, options.match);
    if (!match.ok()) {
      errors[e] = match.status();
      return;
    }
    CatalogMatch candidate;
    candidate.entry = e;
    candidate.name = view.name(e);
    candidate.match = *std::move(match);
    candidate.ranking_key = maximize ? candidate.match.metric_value
                                     : -candidate.match.metric_value;
    candidate.normalized_score = candidate.ranking_key / denominator;
    shared.Submit(candidate.ranking_key);
    slots[e] = std::move(candidate);
  };

  const bool tiered = options.use_prefilter && options.use_index &&
                      index != nullptr && !index->empty() &&
                      index->num_entries() == count;

  // Candidate discovery visits entries in descending bound order. The
  // first warm_target survivors are matched inline on this thread
  // (warm-up): the threshold cannot prune until k keys exist, so those
  // matches gain nothing from the pool, and completing the most
  // promising entries first lifts the threshold to a near-final value
  // before anything else is considered. The rest land in `deferred`.
  //
  // The tiered descent warms log2(count) extra entries beyond k. The
  // threshold is frozen once warm-up ends (deferred entries do not
  // match until fan-out), so a single weak key among the first k —
  // heuristic matchers can score far below an entry's admissible bound
  // — would leave the k-th best key low for the entire descent and
  // force near-total subtree expansion. A log-depth cushion lets
  // later, stronger keys displace weak ones before the threshold is
  // locked in, at the cost of a handful of serial matches.
  std::vector<size_t> deferred;
  deferred.reserve(count);
  size_t warmed = 0;
  size_t warm_target = options.use_prefilter ? options.k : 0;
  if (tiered && warm_target > 0) {
    size_t depth = 0;
    for (size_t span = count; span > 1; span >>= 1) ++depth;
    warm_target += depth;
  }
  bool failed = false;
  auto warm_or_defer = [&](size_t e) {
    if (warmed < warm_target) {
      ++warmed;
      run_entry(e);
      if (!errors[e].ok()) failed = true;
      return;
    }
    deferred.push_back(e);
  };

  if (tiered) {
    // Best-first branch-and-bound over the tiered index: a max-heap of
    // subtrees and entries keyed by admissible bound. Popping an item
    // below the (monotone) threshold proves every remaining item is
    // below it too, so the whole frontier drains as pruned.
    const std::vector<size_t>& order = index->entry_order();
    std::vector<size_t> compat_prefix(count + 1, 0);
    for (size_t i = 0; i < count; ++i) {
      compat_prefix[i + 1] =
          compat_prefix[i] + static_cast<size_t>(compatible[order[i]]);
    }
    auto compatible_in = [&](const TieredIndexNode& node) {
      return compat_prefix[node.end] - compat_prefix[node.begin];
    };

    struct Frontier {
      double bound;
      bool is_entry;
      size_t id;  // entry id when is_entry, node id otherwise
    };
    // priority_queue keeps the *highest* priority at top with a
    // "lower-priority-than" comparator. Ties break deterministically:
    // entries before subtrees, then smaller id.
    auto lower_priority = [](const Frontier& a, const Frontier& b) {
      if (a.bound != b.bound) return a.bound < b.bound;
      if (a.is_entry != b.is_entry) return b.is_entry;
      return a.id > b.id;
    };
    std::priority_queue<Frontier, std::vector<Frontier>,
                        decltype(lower_priority)>
        frontier(lower_priority);
    if (compatible_in(index->node(index->root())) > 0) {
      ++out.stats.cluster_bound_evaluations;
      frontier.push({index->ClusterBound(index->root(), query_signature,
                                         metric, options.match.cardinality),
                     false, index->root()});
    }
    while (!frontier.empty() && !failed) {
      Frontier item = frontier.top();
      // Strict <: a bound that ties the k-th best key is never pruned,
      // so boundary ties resolve identically at every thread count and
      // with or without the index.
      if (item.bound < shared.Threshold()) {
        while (!frontier.empty()) {
          Frontier rest = frontier.top();
          frontier.pop();
          if (rest.is_entry) {
            pruned[rest.id] = 1;
          } else {
            const TieredIndexNode& node = index->node(rest.id);
            for (size_t i = node.begin; i < node.end; ++i) {
              if (compatible[order[i]] != 0) pruned[order[i]] = 1;
            }
          }
        }
        break;
      }
      frontier.pop();
      if (item.is_entry) {
        bounds[item.id] = item.bound;
        warm_or_defer(item.id);
        continue;
      }
      const TieredIndexNode& node = index->node(item.id);
      if (node.left < 0) {
        for (size_t i = node.begin; i < node.end; ++i) {
          size_t e = order[i];
          if (compatible[e] == 0) continue;
          ++out.stats.bound_evaluations;
          frontier.push({CatalogEntryBound(query_signature, view.signature(e),
                                           metric, options.match.cardinality),
                         true, e});
        }
      } else {
        for (int64_t child : {node.left, node.right}) {
          size_t child_id = static_cast<size_t>(child);
          if (compatible_in(index->node(child_id)) == 0) continue;
          ++out.stats.cluster_bound_evaluations;
          frontier.push({index->ClusterBound(child_id, query_signature, metric,
                                             options.match.cardinality),
                         false, child_id});
        }
      }
    }
  } else {
    // Flat pass: bound every compatible entry, then visit in descending
    // bound order. Highest bound first means the most promising entries
    // complete earliest and lift the shared threshold fastest.
    std::vector<size_t> candidates;
    candidates.reserve(count);
    for (size_t e = 0; e < count; ++e) {
      if (compatible[e] == 0) continue;
      if (options.use_prefilter) {
        ++out.stats.bound_evaluations;
        bounds[e] = CatalogEntryBound(query_signature, view.signature(e),
                                      metric, options.match.cardinality);
      } else {
        bounds[e] = kInf;
      }
      candidates.push_back(e);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&bounds](size_t a, size_t b) {
                       if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
                       return a < b;
                     });
    for (size_t e : candidates) {
      if (failed) break;
      if (options.use_prefilter && bounds[e] < shared.Threshold()) {
        pruned[e] = 1;
        continue;
      }
      warm_or_defer(e);
    }
  }

  if (!failed) {
    // Survivors the warm-up could not rule out. Spinning the pool up
    // costs more than a handful of matches, so small survivor sets run
    // here on the coordinator (CatalogSearchOptions::min_parallel_entries);
    // results are identical either way because workers re-check the same
    // strict bound-vs-threshold condition.
    const bool fan_out = options.num_threads > 1 &&
                         (options.min_parallel_entries == 0 ||
                          deferred.size() >= options.min_parallel_entries);
    ThreadPool::ParallelFor(
        fan_out ? options.num_threads : 1, deferred.size(), [&](size_t i) {
          size_t e = deferred[i];
          // Strict <, as above. The threshold only grows, so a stale
          // read can only under-prune.
          if (options.use_prefilter && bounds[e] < shared.Threshold()) {
            pruned[e] = 1;
            return;
          }
          run_entry(e);
        });
  }

  for (size_t e = 0; e < count; ++e) {
    if (!errors[e].ok()) {
      return Status(errors[e].code(),
                    StrFormat("searching catalog entry %zu ('%s'): %s", e,
                              view.name(e).c_str(),
                              errors[e].message().c_str()));
    }
  }
  for (size_t e = 0; e < count; ++e) {
    if (pruned[e] != 0) ++out.stats.entries_pruned;
    if (slots[e].has_value()) {
      ++out.stats.entries_searched;
      out.ranked.push_back(*std::move(slots[e]));
    }
  }
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const CatalogMatch& a, const CatalogMatch& b) {
              if (a.ranking_key != b.ranking_key) {
                return a.ranking_key > b.ranking_key;
              }
              return a.entry < b.entry;
            });
  if (out.ranked.size() > options.k) {
    out.ranked.resize(options.k);
  }
  return out;
}

namespace {

class GraphCatalogView final : public CatalogEntryView {
 public:
  explicit GraphCatalogView(const GraphCatalog& catalog) : catalog_(catalog) {}
  size_t count() const override { return catalog_.size(); }
  size_t width(size_t entry) const override {
    return catalog_.graph(entry).size();
  }
  const std::string& name(size_t entry) const override {
    return catalog_.name(entry);
  }
  const GraphSignature& signature(size_t entry) const override {
    return catalog_.signature(entry);
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
