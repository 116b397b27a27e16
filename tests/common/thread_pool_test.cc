#include "depmatch/common/thread_pool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <vector>

namespace depmatch {
namespace {

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanScheduleMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&pool, &counter] {
    counter.fetch_add(1);
    pool.Schedule([&counter] { counter.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

#if defined(__linux__)
TEST(ParallelForTest, WorkersKeepTheCallersAffinityMask) {
  // Workers are moved onto their own CPUs, but must end up with the
  // caller's mask, not pinned to one CPU.
  cpu_set_t caller;
  CPU_ZERO(&caller);
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  std::vector<int> same(16, 0);
  ThreadPool::ParallelForWithWorker(4, same.size(), [&](size_t, size_t i) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    same[i] = sched_getaffinity(0, sizeof(mask), &mask) == 0 &&
              CPU_EQUAL(&mask, &caller);
  });
  for (size_t i = 0; i < same.size(); ++i) {
    EXPECT_EQ(same[i], 1) << "index " << i;
  }
}
#endif

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  ThreadPool::ParallelFor(4, visits.size(),
                          [&visits](size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> visits(20, 0);
  ThreadPool::ParallelFor(1, visits.size(),
                          [&visits](size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ZeroCountIsNoOp) {
  bool called = false;
  ThreadPool::ParallelFor(4, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForWithWorkerTest, VisitsEveryIndexWithValidWorker) {
  constexpr size_t kThreads = 4;
  std::vector<std::atomic<int>> visits(1000);
  std::atomic<bool> worker_in_range{true};
  ThreadPool::ParallelForWithWorker(
      kThreads, visits.size(),
      [&visits, &worker_in_range](size_t worker, size_t i) {
        if (worker >= kThreads) worker_in_range = false;
        visits[i].fetch_add(1);
      });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
  EXPECT_TRUE(worker_in_range.load());
}

TEST(ParallelForWithWorkerTest, SerialPathUsesWorkerZero) {
  std::vector<size_t> workers;
  ThreadPool::ParallelForWithWorker(
      1, 10, [&workers](size_t worker, size_t) { workers.push_back(worker); });
  ASSERT_EQ(workers.size(), 10u);
  for (size_t w : workers) EXPECT_EQ(w, 0u);
}

TEST(ThreadPoolTest, DestructionWithLongQueueDrainsEverything) {
  // Unlike DestructorDrainsOutstandingWork's 50 quick tasks, this queue
  // is deep enough that the destructor necessarily runs while most of it
  // is still pending: ~ThreadPool must finish every queued task before
  // joining the workers.
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 2000; ++i) {
      pool.Schedule([&executed] { executed.fetch_add(1); });
    }
  }
  EXPECT_EQ(executed.load(), 2000);
}

TEST(ThreadPoolTest, TasksMustNotThrow) {
  // DepMatch tasks are exception-free by contract: library code never
  // throws (tools/depmatch_analyze's no-throw rule enforces it at the
  // source level), so WorkerLoop intentionally has no try/catch — an
  // escaping exception would std::terminate. This test documents the
  // invariant: every task communicates failure through captured state,
  // never by unwinding into the pool.
  ThreadPool pool(2);
  std::atomic<int> failures{0};
  for (int i = 0; i < 10; ++i) {
    pool.Schedule([&failures, i] {
      if (i % 2 == 0) failures.fetch_add(1);  // "failure" via state
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 5);
}

TEST(ParallelForWithWorkerTest, CountBelowThreadCountRunsEachIndexOnce) {
  // count < num_threads: surplus workers must exit cleanly without
  // calling fn, and each index still runs exactly once on a valid
  // worker.
  constexpr size_t kThreads = 8;
  constexpr size_t kCount = 2;
  std::vector<std::atomic<int>> visits(kCount);
  std::atomic<bool> worker_in_range{true};
  ThreadPool::ParallelForWithWorker(
      kThreads, kCount, [&](size_t worker, size_t i) {
        if (worker >= kThreads) worker_in_range = false;
        visits[i].fetch_add(1);
      });
  EXPECT_TRUE(worker_in_range.load());
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForWithWorkerTest, EachIndexSeesExactlyOneWorker) {
  // Per-worker scratch is sound only if an index never runs on two
  // workers; record the worker per index and check it was set once.
  std::vector<std::atomic<int>> owner(500);
  for (auto& o : owner) o.store(-1);
  ThreadPool::ParallelForWithWorker(
      3, owner.size(), [&owner](size_t worker, size_t i) {
        int expected = -1;
        owner[i].compare_exchange_strong(expected,
                                         static_cast<int>(worker));
      });
  for (const auto& o : owner) {
    EXPECT_GE(o.load(), 0);
    EXPECT_LT(o.load(), 3);
  }
}

}  // namespace
}  // namespace depmatch
