#include "depmatch/common/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <utility>

#include "depmatch/common/logging.h"

namespace depmatch {
namespace {

// Where ParallelForWithWorker starts its workers: worker t on the t-th
// CPU of the caller's affinity mask, counting from the CPU the caller
// runs on (worker 0 shares it while the caller waits). Some hosts never
// move a new thread off its creator's CPU on their own (a cpuset with
// sched_load_balance = 0), and there every worker would share one CPU.
class WorkerPlacement {
 public:
  WorkerPlacement() {
#if defined(__linux__)
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    const int current = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask_)) continue;
      if (cpu == current) first_ = cpus_.size();
      cpus_.push_back(cpu);
    }
#endif
  }

  // Moves the calling thread onto worker `worker`'s CPU, then widens its
  // mask back to the caller's: pinning migrates the thread at once, and
  // the wide mask leaves it there until the scheduler has a reason to
  // move it. If pinning fails the scheduler places the thread; if
  // widening fails the worker keeps its CPU until the call ends.
  void Place(size_t worker) const {
#if defined(__linux__)
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(first_ + worker) % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
    (void)sched_setaffinity(0, sizeof(mask_), &mask_);
#else
    (void)worker;
#endif
  }

 private:
#if defined(__linux__)
  cpu_set_t mask_{};
#endif
  std::vector<int> cpus_;
  size_t first_ = 0;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  DEPMATCH_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DEPMATCH_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutting_down_ with an empty queue: exit.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(size_t num_threads, size_t count,
                             const std::function<void(size_t)>& fn) {
  ParallelForWithWorker(num_threads, count,
                        [&fn](size_t /*worker*/, size_t i) { fn(i); });
}

void ThreadPool::ParallelForWithWorker(
    size_t num_threads, size_t count,
    const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  if (num_threads <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  ThreadPool pool(num_threads);
  const WorkerPlacement placement;
  std::atomic<size_t> next{0};
  for (size_t t = 0; t < num_threads; ++t) {
    pool.Schedule([&next, &placement, count, &fn, t] {
      placement.Place(t);
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(t, i);
      }
    });
  }
  pool.Wait();
}

}  // namespace depmatch
