// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fixed-size thread pool used by the experiment runner to parallelize
// independent matching iterations (the paper ran its 50-iteration
// experiments in parallel across workstations; we parallelize across
// cores within one process).

#ifndef DEPMATCH_COMMON_THREAD_POOL_H_
#define DEPMATCH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "depmatch/common/thread_annotations.h"

namespace depmatch {

// A minimal fixed-size thread pool. Tasks are void() callables. Destruction
// waits for all scheduled tasks to finish.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` for execution on some worker. Must not be called
  // from a scope holding mu_ (it takes the lock itself).
  void Schedule(std::function<void()> task) DEPMATCH_EXCLUDES(mu_);

  // Blocks until every scheduled task (including tasks scheduled by other
  // tasks) has completed.
  void Wait() DEPMATCH_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  // Runs `fn(i)` for i in [0, count), distributing across the pool, and
  // waits for completion. `fn` must be safe to call concurrently. The
  // workers are placed as ParallelForWithWorker's are.
  static void ParallelFor(size_t num_threads, size_t count,
                          const std::function<void(size_t)>& fn);

  // Like ParallelFor, but passes the worker's index in [0, num_threads)
  // as the first argument, so callers can give each worker its own
  // reusable scratch (O(threads) buffers instead of O(count)). Each index
  // runs on exactly one worker; the serial path (num_threads <= 1) uses
  // worker 0 throughout. On Linux each worker starts on its own CPU of
  // the caller's affinity mask (wrapping when there are fewer CPUs) and
  // keeps the caller's mask, so the scheduler may still move it.
  static void ParallelForWithWorker(
      size_t num_threads, size_t count,
      const std::function<void(size_t worker, size_t index)>& fn);

 private:
  void WorkerLoop() DEPMATCH_EXCLUDES(mu_);

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_ DEPMATCH_GUARDED_BY(mu_);
  size_t in_flight_ DEPMATCH_GUARDED_BY(mu_) = 0;
  bool shutting_down_ DEPMATCH_GUARDED_BY(mu_) = false;
  // depmatch-analyze: allow(lock-annotation) — written only by the
  // constructor (before any sharing) and joined by the destructor after
  // every worker has exited; num_threads() reads a size fixed at birth.
  std::vector<std::thread> threads_;
};

}  // namespace depmatch

#endif  // DEPMATCH_COMMON_THREAD_POOL_H_
