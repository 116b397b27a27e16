// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "depmatch/service/match_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "depmatch/common/string_util.h"
#include "depmatch/core/schema_matcher.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/table/encoded_column.h"

namespace depmatch {
namespace service {

namespace {

ServiceOptions Sanitize(ServiceOptions options) {
  options.num_threads = std::max<size_t>(1, options.num_threads);
  options.max_queue = std::max<size_t>(1, options.max_queue);
  options.max_batch = std::max<size_t>(1, options.max_batch);
  return options;
}

Response MakeErrorResponse(const Request& request, WireStatus status,
                           std::string message) {
  Response response;
  response.request_id = request.request_id;
  response.type = request.type;
  response.status = status;
  response.message = std::move(message);
  return response;
}

Response MakeStatusResponse(const Request& request, const Status& status) {
  return MakeErrorResponse(request, WireStatusFromStatusCode(status.code()),
                           status.message());
}

// Builds the CatalogSearchOptions a search request resolves to. The
// catalog-level fan-out stays serial (num_threads = 1): concurrency
// comes from running the micro-batch's members as parallel pool tasks,
// and SearchCatalog is bit-identical at any thread count, so the direct
// re-execution in tests may pick any value.
CatalogSearchOptions ResolveSearchOptions(const SearchRequest& search,
                                          const ServiceOptions& service) {
  CatalogSearchOptions options;
  options.k = static_cast<size_t>(search.k);
  options.match = search.options.ToMatchOptions(1);
  options.use_prefilter = service.use_prefilter;
  options.use_index = service.use_index;
  options.num_threads = 1;
  return options;
}

}  // namespace

MatchService::MatchService(GraphCatalog catalog, ServiceOptions options)
    : options_(Sanitize(std::move(options))), pool_(options_.num_threads) {
  std::shared_ptr<const ServiceSnapshot> first = MakeServiceSnapshot(
      1, std::move(catalog), options_.build_index, options_.index);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(first);
  }
  // depmatch-lint: allow(raw-thread) — long-lived dispatcher consumer
  // loop; a ThreadPool task blocking on the queue's condition variable
  // would starve the pool (see the header's concurrency model).
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

MatchService::~MatchService() { Stop(); }

Response MatchService::Process(const Request& request) {
  std::future<Response> pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (request.type == RequestType::kStats) {
      Response response;
      response.request_id = request.request_id;
      response.type = RequestType::kStats;
      response.stats = StatsLocked();
      return response;
    }
    if (stopping_) {
      return MakeErrorResponse(request, WireStatus::kShuttingDown,
                               "service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      ++counters_.shed_overload_total;
      return MakeErrorResponse(
          request, WireStatus::kOverloaded,
          StrFormat("admission queue full (%zu queued); retry later",
                    queue_.size()));
    }
    auto item = std::make_unique<WorkItem>();
    item->request = request;
    item->admitted = Clock::now();
    uint64_t deadline_ms = request.deadline_ms != 0
                               ? request.deadline_ms
                               : options_.default_deadline_ms;
    if (deadline_ms != 0) {
      item->has_deadline = true;
      item->deadline =
          item->admitted + std::chrono::milliseconds(deadline_ms);
    }
    pending = item->promise.get_future();
    queue_.push_back(std::move(item));
    ++counters_.accepted_total;
    counters_.max_queue_depth_seen =
        std::max<uint64_t>(counters_.max_queue_depth_seen, queue_.size());
    work_cv_.notify_one();
  }
  return pending.get();
}

std::shared_ptr<const ServiceSnapshot> MatchService::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::shared_ptr<const ServiceSnapshot> MatchService::SnapshotAt(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ != nullptr && snapshot_->version == version) return snapshot_;
  for (const auto& old : history_) {
    if (old->version == version) return old;
  }
  return nullptr;
}

StatsResponse MatchService::StatsLocked() const {
  StatsResponse stats;
  if (snapshot_ != nullptr) {
    stats.snapshot_version = snapshot_->version;
    stats.catalog_entries = snapshot_->catalog.size();
  }
  stats.accepted_total = counters_.accepted_total;
  stats.completed_total = counters_.completed_total;
  stats.shed_overload_total = counters_.shed_overload_total;
  stats.shed_deadline_total = counters_.shed_deadline_total;
  stats.batches_total = counters_.batches_total;
  stats.batched_requests_total = counters_.batched_requests_total;
  stats.inserts_total = counters_.inserts_total;
  stats.appends_total = counters_.appends_total;
  stats.queue_depth = queue_.size();
  stats.max_queue_depth_seen = counters_.max_queue_depth_seen;
  StatCache::Counters cache = stat_cache_.counters();
  stats.stat_cache_hits = cache.hits + cache.edge_hits;
  stats.stat_cache_misses = cache.misses + cache.edge_misses;
  return stats;
}

StatsResponse MatchService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

void MatchService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  std::deque<std::unique_ptr<WorkItem>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(queue_);
  }
  for (auto& item : drained) {
    item->promise.set_value(MakeErrorResponse(
        item->request, WireStatus::kShuttingDown,
        "service stopped before the request was executed"));
  }
}

void MatchService::PauseForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MatchService::ResumeForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

size_t MatchService::QueueDepthForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void MatchService::RecycleStatCache() {
  if (options_.stat_cache_max_entries == 0) return;
  StatCache::Counters counters = stat_cache_.counters();
  if (counters.entries > options_.stat_cache_max_entries ||
      counters.edge_entries > options_.stat_cache_max_entries) {
    stat_cache_.Clear();
  }
}

void MatchService::DispatcherLoop() {
  for (;;) {
    std::vector<std::unique_ptr<WorkItem>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (!queue_.empty() && !paused_);
      });
      if (stopping_) return;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Micro-batching: coalesce the run of consecutive search requests
      // at the head of the queue onto one pool pass.
      if (batch.front()->request.type == RequestType::kSearch) {
        while (batch.size() < options_.max_batch && !queue_.empty() &&
               queue_.front()->request.type == RequestType::kSearch) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }

    // Deadline shedding happens at dequeue: a request that waited past
    // its deadline is answered immediately instead of executed, so
    // overload produces fast explicit failures, not slow successes.
    // Responses are collected first and the promises resolved only
    // after the counter flush below, so by the time a caller unblocks
    // the counters already account for its request.
    Clock::time_point now = Clock::now();
    std::vector<WorkItem*> live;
    std::vector<std::pair<WorkItem*, Response>> resolved;
    uint64_t shed_deadline = 0;
    for (auto& item : batch) {
      if (item->has_deadline && now > item->deadline) {
        ++shed_deadline;
        resolved.emplace_back(
            item.get(),
            MakeErrorResponse(
                item->request, WireStatus::kDeadlineExceeded,
                "deadline expired while the request was queued"));
        continue;
      }
      live.push_back(item.get());
    }

    uint64_t completed = 0;
    uint64_t batches = 0;
    uint64_t batched_requests = 0;
    if (!live.empty()) {
      if (live.front()->request.type == RequestType::kSearch) {
        // One pool pass for the whole batch. Every member executes
        // against the same immutable snapshot, grabbed once here.
        std::shared_ptr<const ServiceSnapshot> snap = snapshot();
        batches = 1;
        batched_requests = live.size();
        std::vector<Response> responses(live.size());
        for (size_t i = 0; i < live.size(); ++i) {
          WorkItem* item = live[i];
          pool_.Schedule([this, &responses, i, item, snap] {
            responses[i] = ExecuteSearchDirect(item->request, *snap, options_);
          });
        }
        pool_.Wait();
        for (size_t i = 0; i < live.size(); ++i) {
          resolved.emplace_back(live[i], std::move(responses[i]));
        }
        completed = live.size();
      } else {
        resolved.emplace_back(live.front(),
                              ExecuteSingle(live.front()->request));
        completed = 1;
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.completed_total += completed;
      counters_.shed_deadline_total += shed_deadline;
      counters_.batches_total += batches;
      counters_.batched_requests_total += batched_requests;
    }
    for (auto& [item, response] : resolved) {
      item->promise.set_value(std::move(response));
    }
  }
}

Response MatchService::ExecuteSingle(const Request& request) {
  switch (request.type) {
    case RequestType::kMatchTables:
      RecycleStatCache();
      return ExecuteMatchDirect(
          request,
          options_.stat_cache_max_entries != 0 ? &stat_cache_ : nullptr);
    case RequestType::kInsert:
      return ExecuteInsert(request);
    case RequestType::kAppend:
      return ExecuteAppend(request);
    case RequestType::kSearch:
    case RequestType::kStats:
      break;  // handled elsewhere; fall through to the error below
  }
  return MakeErrorResponse(request, WireStatus::kInternal,
                           "request type routed to the wrong executor");
}

Response MatchService::ExecuteMatchDirect(const Request& request,
                                          StatCache* stat_cache) {
  Response response;
  response.request_id = request.request_id;
  response.type = RequestType::kMatchTables;

  SchemaMatchOptions options;
  options.match = request.match.options.ToMatchOptions(1);
  options.stat_cache = stat_cache;
  // The encoded-view path honors the stat cache and is bit-identical to
  // the Table overload (core/schema_matcher.h), so cache on/off cannot
  // change a served result.
  Result<SchemaMatchResult> matched =
      MatchTables(EncodedTableView::FromTable(request.match.source),
                  EncodedTableView::FromTable(request.match.target), options);
  if (!matched.ok()) return MakeStatusResponse(request, matched.status());

  response.match.metric_value = matched->match.metric_value;
  response.match.metric = matched->match.metric;
  response.match.correspondences.reserve(matched->correspondences.size());
  for (const Correspondence& c : matched->correspondences) {
    WireCorrespondence wire;
    wire.source_index = c.source_index;
    wire.target_index = c.target_index;
    wire.source_name = c.source_name;
    wire.target_name = c.target_name;
    response.match.correspondences.push_back(std::move(wire));
  }
  return response;
}

Response MatchService::ExecuteSearchDirect(const Request& request,
                                           const ServiceSnapshot& snapshot,
                                           const ServiceOptions& options) {
  Response response;
  response.request_id = request.request_id;
  response.type = RequestType::kSearch;

  if (request.search.k == 0) {
    return MakeErrorResponse(request, WireStatus::kInvalidArgument,
                             "search k must be >= 1");
  }

  // Resolve the query graph: built from the inline table, or borrowed
  // from the named stored entry of the serving snapshot.
  DependencyGraph built;
  const DependencyGraph* query = nullptr;
  if (request.search.source == SearchSource::kInlineTable) {
    Result<DependencyGraph> graph =
        BuildDependencyGraph(request.search.table);
    if (!graph.ok()) return MakeStatusResponse(request, graph.status());
    built = *std::move(graph);
    query = &built;
  } else {
    Result<size_t> entry = snapshot.catalog.Find(request.search.stored_name);
    if (!entry.ok()) return MakeStatusResponse(request, entry.status());
    query = &snapshot.catalog.graph(*entry);
  }

  Result<CatalogSearchResult> searched = SearchCatalog(
      *query, snapshot.catalog, ResolveSearchOptions(request.search, options));
  if (!searched.ok()) return MakeStatusResponse(request, searched.status());

  response.search.snapshot_version = snapshot.version;
  response.search.entries_total = searched->stats.entries_total;
  response.search.entries_searched = searched->stats.entries_searched;
  response.search.entries_pruned = searched->stats.entries_pruned;
  response.search.hits.reserve(searched->ranked.size());
  for (const CatalogMatch& match : searched->ranked) {
    SearchHit hit;
    hit.name = match.name;
    hit.entry = match.entry;
    hit.ranking_key = match.ranking_key;
    hit.normalized_score = match.normalized_score;
    hit.metric_value = match.match.metric_value;
    hit.pairs = match.match.pairs;
    response.search.hits.push_back(std::move(hit));
  }
  return response;
}

Response MatchService::ExecuteInsert(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  response.type = RequestType::kInsert;

  if (request.insert.name.empty()) {
    return MakeErrorResponse(request, WireStatus::kInvalidArgument,
                             "catalog entry name must not be empty");
  }

  // A table-backed entry is built through the incremental builder so
  // its count state survives for later kAppend requests. The builder's
  // initial Refresh IS the cold build — bit-identical to
  // BuildDependencyGraph on the same table (graph/incremental_builder.h)
  // — so table inserts serve exactly what they always did.
  DependencyGraph graph;
  std::unique_ptr<IncrementalGraphBuilder> builder;
  if (request.insert.payload == InsertPayload::kTable) {
    Result<IncrementalGraphBuilder> built =
        IncrementalGraphBuilder::Create(request.insert.table);
    if (!built.ok()) return MakeStatusResponse(request, built.status());
    builder = std::make_unique<IncrementalGraphBuilder>(*std::move(built));
    graph = builder->graph();
  } else {
    graph = request.insert.graph;
  }

  // Copy-on-write publication: the successor catalog is assembled here,
  // outside any lock, while readers keep serving the current snapshot.
  // Only the dispatcher runs inserts, so publications are serialized.
  // The copy shares every entry with the current catalog; a replacement
  // swaps in one new entry and the re-index below covers it.
  std::shared_ptr<const ServiceSnapshot> current = snapshot();
  const bool replaced = current->catalog.Find(request.insert.name).ok();
  if (replaced && !request.insert.replace_existing) {
    return MakeErrorResponse(
        request, WireStatus::kAlreadyExists,
        StrFormat("entry '%s' already exists and replace_existing is off",
                  request.insert.name.c_str()));
  }
  GraphCatalog next = current->catalog;
  Status inserted =
      replaced ? next.UpdateEntry(request.insert.name, std::move(graph),
                                  options_.index)
               : next.Insert(request.insert.name, std::move(graph));
  if (!inserted.ok()) return MakeStatusResponse(request, inserted);

  std::shared_ptr<const ServiceSnapshot> published =
      MakeServiceSnapshot(current->version + 1, std::move(next),
                          options_.build_index, options_.index);
  response.insert.snapshot_version = published->version;
  response.insert.catalog_entries = published->catalog.size();
  response.insert.replaced = replaced;
  // Builder bookkeeping happens only once publication is certain, so a
  // failed insert never clobbers an entry's existing count state. A
  // graph-blob (re)insert drops any prior state: the entry is no longer
  // table-backed, and a later append must fail kFailedPrecondition
  // rather than extend counts that no longer describe the entry.
  if (builder != nullptr) {
    builders_[request.insert.name] = std::move(builder);
  } else {
    builders_.erase(request.insert.name);
  }
  Publish(std::move(published), &Counters::inserts_total);
  return response;
}

Response MatchService::ExecuteAppend(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  response.type = RequestType::kAppend;

  if (request.append.name.empty()) {
    return MakeErrorResponse(request, WireStatus::kInvalidArgument,
                             "catalog entry name must not be empty");
  }

  std::shared_ptr<const ServiceSnapshot> current = snapshot();
  Result<size_t> entry = current->catalog.Find(request.append.name);
  if (!entry.ok()) return MakeStatusResponse(request, entry.status());

  auto it = builders_.find(request.append.name);
  if (it == builders_.end()) {
    return MakeErrorResponse(
        request, WireStatus::kFailedPrecondition,
        StrFormat("entry '%s' has no count state (inserted as a graph "
                  "blob); append requires a table-backed entry",
                  request.append.name.c_str()));
  }
  IncrementalGraphBuilder& builder = *it->second;

  // O(delta): count only the new rows, refold only the dirty entries.
  // A schema-mismatched delta fails here, before any mutation.
  Status appended = builder.Append(request.append.table);
  if (!appended.ok()) return MakeStatusResponse(request, appended);
  Result<DependencyGraph> refreshed = builder.Refresh();
  if (!refreshed.ok()) return MakeStatusResponse(request, refreshed.status());

  // Copy-on-write publication, but cheaper than an insert's: the copy
  // shares every entry and the tiered index with the current catalog,
  // UpdateEntry swaps in the refreshed entry and widens its own copy of
  // the index along that entry's root-to-leaf envelope path, and the
  // index-preserving snapshot maker skips the O(N log N) re-index
  // entirely. Search against the widened index stays bit-identical to a
  // flat scan (core/catalog_index.h's widen-only contract).
  GraphCatalog next = current->catalog;
  Status updated = next.UpdateEntry(request.append.name, *std::move(refreshed),
                                    options_.index);
  if (!updated.ok()) return MakeStatusResponse(request, updated);

  std::shared_ptr<const ServiceSnapshot> published =
      MakeServiceSnapshotPreservingIndex(current->version + 1,
                                         std::move(next));
  response.append.snapshot_version = published->version;
  response.append.catalog_entries = published->catalog.size();
  response.append.rows_total = builder.rows();
  response.append.generation = builder.generation();
  Publish(std::move(published), &Counters::appends_total);
  return response;
}

void MatchService::Publish(std::shared_ptr<const ServiceSnapshot> published,
                           uint64_t Counters::*write_counter) {
  // The displaced snapshot may be the last owner of an entry, an index
  // and a name map; it is freed after the lock is released, so
  // admission, Stats() and SnapshotAt() never wait on that free.
  std::shared_ptr<const ServiceSnapshot> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.snapshot_history > 0) {
      history_.push_front(std::move(snapshot_));
      if (history_.size() > options_.snapshot_history) {
        evicted = std::move(history_.back());
        history_.pop_back();
      }
    } else {
      evicted = std::move(snapshot_);
    }
    snapshot_ = std::move(published);
    ++(counters_.*write_counter);
  }
}

}  // namespace service
}  // namespace depmatch
