// Tests for the work-stealing thread pool (base/thread_pool.h): exactly-
// once task execution, worker-index discipline, stealing under skewed
// task costs, reuse across ParallelFor calls, and the exception contract
// (task throws on any lane are captured and surfaced as a non-OK Status,
// never std::terminate). The suite is written to be meaningful under
// --gtest_repeat (the TSan CI job reruns it many times to shake out
// scheduling-dependent interleavings).

#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/exec_context.h"

namespace prefrep {
namespace {

TEST(EffectiveThreadCountTest, Clamps) {
  EXPECT_EQ(EffectiveThreadCount(1, 100), 1);
  EXPECT_EQ(EffectiveThreadCount(0, 100), 1);
  EXPECT_EQ(EffectiveThreadCount(-3, 100), 1);
  EXPECT_EQ(EffectiveThreadCount(4, 100), 4);
  EXPECT_EQ(EffectiveThreadCount(8, 3), 3);
  EXPECT_EQ(EffectiveThreadCount(8, 0), 1);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  constexpr size_t kTasks = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(kTasks);
  EXPECT_TRUE(pool.ParallelFor(kTasks, [&](size_t task, int worker) {
                    ASSERT_LT(task, kTasks);
                    ASSERT_GE(worker, 0);
                    ASSERT_LT(worker, pool.thread_count());
                    runs[task].fetch_add(1, std::memory_order_relaxed);
                  })
                  .ok());
  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  int count = 0;
  EXPECT_TRUE(pool.ParallelFor(64, [&](size_t, int worker) {
                    EXPECT_EQ(worker, 0);
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    ++count;  // safe: single thread
                  })
                  .ok());
  EXPECT_EQ(count, 64);
}

TEST(ThreadPoolTest, WorkerIndexIdentifiesOneThreadPerCall) {
  ThreadPool pool(4);
  std::mutex mu;
  std::map<int, std::set<std::thread::id>> threads_of_worker;
  EXPECT_TRUE(pool.ParallelFor(256, [&](size_t, int worker) {
                    std::lock_guard<std::mutex> lock(mu);
                    threads_of_worker[worker].insert(
                        std::this_thread::get_id());
                  })
                  .ok());
  for (const auto& [worker, ids] : threads_of_worker) {
    EXPECT_EQ(ids.size(), 1u) << "worker " << worker
                              << " ran on more than one thread";
  }
  // Worker 0 is the calling thread.
  if (threads_of_worker.contains(0)) {
    EXPECT_EQ(*threads_of_worker[0].begin(), std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, StealsAcrossSkewedTaskCosts) {
  // Task 0 (dealt to worker 0's deque together with 4 and 8) is slow; the
  // tasks queued behind it must complete via stealing even while worker 0
  // is stuck. Exactly-once still holds under the resulting interleavings.
  ThreadPool pool(4);
  constexpr size_t kTasks = 12;
  std::vector<std::atomic<int>> runs(kTasks);
  EXPECT_TRUE(pool.ParallelFor(kTasks, [&](size_t task, int) {
                    if (task == 0) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(20));
                    }
                    runs[task].fetch_add(1, std::memory_order_relaxed);
                  })
                  .ok());
  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, ReusableAcrossSequentialParallelForCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    EXPECT_TRUE(pool.ParallelFor(round + 1, [&](size_t task, int) {
                      sum.fetch_add(static_cast<int>(task) + 1,
                                    std::memory_order_relaxed);
                    })
                    .ok());
    EXPECT_EQ(sum.load(), (round + 1) * (round + 2) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  EXPECT_TRUE(pool.ParallelFor(0, [&](size_t, int) { ran = true; }).ok());
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> runs(3);
  EXPECT_TRUE(pool.ParallelFor(3, [&](size_t task, int worker) {
                    ASSERT_LT(worker, 8);
                    runs[task].fetch_add(1, std::memory_order_relaxed);
                  })
                  .ok());
  for (size_t t = 0; t < 3; ++t) EXPECT_EQ(runs[t].load(), 1);
}

TEST(ThreadPoolTest, DestructionWithNoWorkIsClean) {
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(4);  // construct + destroy without ParallelFor
  }
}

TEST(ThreadPoolTest, CallerLaneThrowBecomesStatusAndPoolStaysUsable) {
  // fn throwing on the caller's lane is captured — not rethrown — and
  // surfaces as kInternal after every worker parks (fn and its captures
  // stay alive until then). The pool must run a fresh epoch cleanly
  // afterwards.
  ThreadPool pool(4);
  std::atomic<bool> threw{false};
  Status status = pool.ParallelFor(64, [&](size_t, int worker) {
    if (worker == 0) {
      threw.store(true, std::memory_order_relaxed);
      throw std::runtime_error("caller lane");
    }
    while (!threw.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("caller lane"), std::string::npos);
  // Reuse: the failed epoch must not leak into the next one.
  std::vector<std::atomic<int>> runs(100);
  EXPECT_TRUE(pool.ParallelFor(100, [&](size_t task, int) {
                    runs[task].fetch_add(1, std::memory_order_relaxed);
                  })
                  .ok());
  for (size_t t = 0; t < 100; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, PoolLaneThrowBecomesStatusNotTerminate) {
  // The historical contract std::terminate'd on any pool-lane throw; now
  // every lane captures and the first exception wins as a Status.
  ThreadPool pool(4);
  Status status = pool.ParallelFor(256, [&](size_t, int worker) {
    if (worker != 0) throw std::runtime_error("pool lane");
  });
  // Worker threads may or may not get a task before the caller drains the
  // queue; when one does, the throw must surface as kInternal.
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("pool lane"), std::string::npos);
  }
  // Either way the pool survives for the next epoch.
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.ParallelFor(32, [&](size_t, int) {
                    count.fetch_add(1, std::memory_order_relaxed);
                  })
                  .ok());
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, BadAllocBecomesResourceExhausted) {
  ThreadPool pool(2);
  Status status =
      pool.ParallelFor(16, [&](size_t, int) { throw std::bad_alloc(); });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(ThreadPoolTest, FirstExceptionWinsRemainingTasksSkipped) {
  // After the first capture the epoch aborts: remaining tasks are counted
  // down but not executed, so a 10k-task epoch finishes almost instantly.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  Status status = pool.ParallelFor(10000, [&](size_t, int) {
    executed.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("boom");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPoolTest, ContextCancellationStopsEpochWithCancelledStatus) {
  ThreadPool pool(4);
  ExecutionContext context;
  std::atomic<int> executed{0};
  std::atomic<bool> first{true};
  Status status = pool.ParallelFor(
      10000,
      [&](size_t, int) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (first.exchange(false)) context.RequestCancel();
      },
      &context);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // Workers observe the token between tasks, so most of the epoch is
  // skipped rather than run.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPoolTest, PreCancelledContextRunsNoTasks) {
  ThreadPool pool(4);
  ExecutionContext context;
  context.RequestCancel();
  std::atomic<int> executed{0};
  Status status = pool.ParallelFor(
      64, [&](size_t, int) { executed.fetch_add(1); }, &context);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPoolTest, TaskExceptionLatchesIntoContext) {
  // A worker throw must both surface from ParallelFor and latch the
  // context, so downstream stages observing only the context stop too.
  ThreadPool pool(2);
  ExecutionContext context;
  Status status = pool.ParallelFor(
      8, [&](size_t, int) { throw std::runtime_error("latched"); }, &context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(context.interrupted());
  EXPECT_EQ(context.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace prefrep
