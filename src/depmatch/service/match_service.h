// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// MatchService: the serving core behind depmatch_serve — an admission
// queue, a dispatcher, and an immutable published catalog snapshot,
// independent of any transport (service/server.h speaks the socket
// protocol and calls Process(); tests and benches call it directly).
//
// Concurrency model
//
//   * Any number of caller threads enter Process(). Admission happens
//     under mu_: a stats request is answered inline (health must work
//     under overload); everything else is appended to a bounded FIFO.
//     When the queue already holds max_queue requests the caller gets
//     an immediate kOverloaded response — the service sheds load
//     explicitly instead of queueing unboundedly, so latency under
//     overload stays bounded by what is already queued.
//   * One dispatcher thread drains the queue. At dequeue it first
//     enforces the request's deadline (admission-relative): a request
//     whose deadline passed while queued is answered kDeadlineExceeded
//     without executing. It then coalesces a run of consecutive search
//     requests (up to max_batch) into one micro-batch executed as
//     concurrent tasks on the owned ThreadPool — one pool pass
//     amortized over the whole batch instead of one per request. All
//     other request types execute singly, in admission order.
//   * Execution reads the published snapshot pointer exactly once and
//     works against that immutable snapshot throughout, so searches
//     never block on inserts. An insert builds the successor snapshot
//     outside the lock (copy + insert + re-index; the copy shares every
//     entry, see core/graph_catalog.h) and swaps the published pointer;
//     because only the dispatcher executes inserts, publications are
//     serialized without a writer lock.
//
// Determinism: execution uses single-threaded library calls
// (num_threads = 1 inside each match/search), and batching only
// changes *when* a search runs, never its snapshot or options — so
// every response is bit-identical to a direct library call against
// the snapshot named in the response. The TSan stress suite
// (tests/stress/service_stress_test.cc) asserts exactly that, post
// hoc, via the retained snapshot history.

#ifndef DEPMATCH_SERVICE_MATCH_SERVICE_H_
#define DEPMATCH_SERVICE_MATCH_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "depmatch/common/thread_annotations.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/core/catalog_index.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/incremental_builder.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/snapshot.h"
#include "depmatch/stats/stat_cache.h"

namespace depmatch {
namespace service {

struct ServiceOptions {
  // Workers in the owned pool that micro-batches fan out onto.
  size_t num_threads = 1;
  // Admission bound: a request arriving when this many are already
  // queued is shed with kOverloaded. Must be >= 1.
  size_t max_queue = 64;
  // Longest run of consecutive search requests coalesced onto one pool
  // pass. Must be >= 1 (1 disables coalescing).
  size_t max_batch = 8;
  // Deadline applied when a request carries none (0 = unlimited).
  uint64_t default_deadline_ms = 0;
  // Build the tiered index into every published snapshot.
  bool build_index = true;
  CatalogIndexOptions index;
  // Catalog fan-out knobs forwarded to SearchCatalog (results are
  // bit-identical regardless; these only affect speed).
  bool use_prefilter = true;
  bool use_index = true;
  // StatCache recycling: the cache is cleared before an execution that
  // would grow it past this many column entries. Inline tables arrive
  // as fresh snapshots (each gets a new table id), so without a bound
  // a long-lived daemon would accrete one entry per column per request
  // forever. 0 disables the cache entirely.
  size_t stat_cache_max_entries = 4096;
  // Past snapshots retained (newest first) for post-hoc verification:
  // SnapshotAt() can resolve the version named in a response for this
  // many publications back. 0 keeps only the current snapshot.
  size_t snapshot_history = 0;
};

class MatchService {
 public:
  // Publishes `catalog` as snapshot version 1 and starts the
  // dispatcher.
  MatchService(GraphCatalog catalog, ServiceOptions options);
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  // Admits `request` and blocks the calling thread until its response
  // is ready. Shed outcomes (kOverloaded, kDeadlineExceeded,
  // kShuttingDown) come back as ordinary responses. Stats requests are
  // answered inline without admission.
  Response Process(const Request& request) DEPMATCH_EXCLUDES(mu_);

  // The currently published snapshot.
  std::shared_ptr<const ServiceSnapshot> snapshot() const
      DEPMATCH_EXCLUDES(mu_);

  // The retained snapshot with `version`, or nullptr if it was never
  // published or has aged out of the history window.
  std::shared_ptr<const ServiceSnapshot> SnapshotAt(uint64_t version) const
      DEPMATCH_EXCLUDES(mu_);

  // Snapshot of the service counters (same numbers a kStats request
  // reports).
  StatsResponse Stats() const DEPMATCH_EXCLUDES(mu_);

  // Stops the dispatcher. Queued requests are answered kShuttingDown;
  // the request currently executing finishes first. Idempotent; also
  // run by the destructor.
  void Stop() DEPMATCH_EXCLUDES(mu_);

  // Test hooks: freeze / thaw the dispatcher between batches, so tests
  // can fill the queue deterministically and observe shedding. Not
  // used by production callers.
  void PauseForTest() DEPMATCH_EXCLUDES(mu_);
  void ResumeForTest() DEPMATCH_EXCLUDES(mu_);
  size_t QueueDepthForTest() const DEPMATCH_EXCLUDES(mu_);

  // The direct-call equivalents of the served execution paths, exposed
  // so benches and the stress suite can reproduce a response
  // bit-identically from the snapshot named in it.
  static Response ExecuteMatchDirect(const Request& request,
                                     StatCache* stat_cache);
  static Response ExecuteSearchDirect(const Request& request,
                                      const ServiceSnapshot& snapshot,
                                      const ServiceOptions& options);

  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkItem {
    Request request;
    Clock::time_point admitted;
    bool has_deadline = false;
    Clock::time_point deadline;
    std::promise<Response> promise;
  };

  // Counters mirrored into StatsResponse; all writes happen under mu_.
  struct Counters {
    uint64_t accepted_total = 0;
    uint64_t completed_total = 0;
    uint64_t shed_overload_total = 0;
    uint64_t shed_deadline_total = 0;
    uint64_t batches_total = 0;
    uint64_t batched_requests_total = 0;
    uint64_t inserts_total = 0;
    uint64_t appends_total = 0;
    uint64_t max_queue_depth_seen = 0;
  };

  void DispatcherLoop() DEPMATCH_EXCLUDES(mu_);
  // Executes one non-search request on the dispatcher thread.
  Response ExecuteSingle(const Request& request) DEPMATCH_EXCLUDES(mu_);
  Response ExecuteInsert(const Request& request) DEPMATCH_EXCLUDES(mu_);
  // Appends delta rows to a table-backed entry's incremental builder,
  // refreshes its graph in O(delta), widens the copied catalog's own
  // index copy, and publishes — never re-indexing. Dispatcher thread
  // only.
  Response ExecuteAppend(const Request& request) DEPMATCH_EXCLUDES(mu_);
  // Makes `published` the current snapshot, pushes the displaced one
  // into the history, and counts the write in `write_counter`. A
  // snapshot that leaves the history is released after mu_ is dropped.
  void Publish(std::shared_ptr<const ServiceSnapshot> published,
               uint64_t Counters::*write_counter) DEPMATCH_EXCLUDES(mu_);
  StatsResponse StatsLocked() const DEPMATCH_REQUIRES(mu_);
  // Clears the stat cache when it outgrew the configured bound.
  void RecycleStatCache();

  const ServiceOptions options_;
  // depmatch-analyze: allow(lock-annotation) — ThreadPool is internally
  // synchronized (its own mutex guards the task queue).
  ThreadPool pool_;
  // depmatch-analyze: allow(lock-annotation) — StatCache is internally
  // synchronized; it is also only touched from the dispatcher thread.
  StatCache stat_cache_;
  // Per-entry incremental count state for table-backed catalog entries,
  // keyed by entry name. Inserts with InsertPayload::kTable create one;
  // graph-blob inserts erase it; appends extend it. Only the dispatcher
  // thread executes inserts and appends, so the map is never shared.
  std::unordered_map<std::string, std::unique_ptr<IncrementalGraphBuilder>>
      builders_;  // depmatch-analyze: allow(lock-annotation) — dispatcher-only

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::unique_ptr<WorkItem>> queue_ DEPMATCH_GUARDED_BY(mu_);
  bool stopping_ DEPMATCH_GUARDED_BY(mu_) = false;
  bool paused_ DEPMATCH_GUARDED_BY(mu_) = false;
  Counters counters_ DEPMATCH_GUARDED_BY(mu_);
  // The published snapshot. Readers copy the shared_ptr under mu_ and
  // then work lock-free against the immutable snapshot.
  std::shared_ptr<const ServiceSnapshot> snapshot_ DEPMATCH_GUARDED_BY(mu_);
  // Previously published snapshots, newest first, bounded by
  // options_.snapshot_history.
  std::deque<std::shared_ptr<const ServiceSnapshot>> history_
      DEPMATCH_GUARDED_BY(mu_);
  // depmatch-analyze: allow(lock-annotation) — written by the
  // constructor before any sharing and joined by Stop(); never touched
  // concurrently.
  // depmatch-lint: allow(raw-thread) — the dispatcher is a long-lived
  // consumer loop, not a fan-out task; ThreadPool tasks cannot block on
  // a condition variable without starving the pool.
  std::thread dispatcher_;
};

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_MATCH_SERVICE_H_
