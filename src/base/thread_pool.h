// Work-stealing thread pool for sharded per-component repair enumeration.
//
// The enumeration engines (graph/mis.cc, core/families.cc) decompose the
// conflict graph into connected components and materialize one choice list
// per component. Components are fully independent work units of wildly
// uneven cost — a component's repair space is exponential in its size —
// so the pool gives every worker its own task deque and lets idle workers
// steal from the others; a static round-robin split would serialize on
// whichever worker drew the largest component.
//
// The pool is deliberately simple and TSan-clean: deques are mutex
// guarded (task granularity is whole-component enumeration or a chunk of
// the repair product, microseconds to seconds, so queue overhead is
// noise), completion is one atomic counter, and the caller's thread
// participates as worker 0 so `thread_count` bounds total concurrency.

#ifndef PREFREP_BASE_THREAD_POOL_H_
#define PREFREP_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/status.h"

namespace prefrep {

class ExecutionContext;

// Worker count actually worth spawning for `task_count` independent tasks
// when the caller asked for `threads` (EvalOptions::threads; <= 1 means
// serial): never more threads than tasks, never less than one.
inline int EffectiveThreadCount(int threads, size_t task_count) {
  if (threads < 1) threads = 1;
  if (task_count < static_cast<size_t>(threads)) {
    threads = static_cast<int>(task_count);
  }
  return threads < 1 ? 1 : threads;
}

class ThreadPool {
 public:
  // Spawns `thread_count - 1` OS threads; the caller participates as
  // worker 0 for the duration of each ParallelFor. thread_count >= 1.
  explicit ThreadPool(int thread_count);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int thread_count() const { return thread_count_; }

  // Runs fn(task, worker) for tasks in [0, task_count) and returns when
  // every dispatched call has finished. `worker` is in [0, thread_count)
  // and identifies the executing lane within this call — index per-worker
  // state (engines, scratch, compiled queries) with it. Tasks are dealt
  // round-robin across the per-worker deques; a worker whose deque drains
  // steals from the back of the others. Not reentrant: fn must not call
  // ParallelFor on the same pool.
  //
  // Returns OK when every task ran to completion. A throw out of fn on ANY
  // lane (caller or pool worker) is captured — never std::terminate — and
  // surfaced as the returned Status (bad_alloc -> kResourceExhausted,
  // other std::exception -> kInternal); the first failure wins and the
  // remaining undispatched tasks are skipped. When `context` is set,
  // workers additionally observe its cancellation token between tasks and
  // a captured failure is latched into the context via Fail(); an
  // interrupted context yields its kCancelled / kDeadlineExceeded status.
  // Either way fn and its captures stay alive until the last in-flight
  // call finishes; some tasks may simply never have run.
  [[nodiscard]] Status ParallelFor(
      size_t task_count, const std::function<void(size_t task, int worker)>& fn,
      ExecutionContext* context = nullptr);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<size_t> tasks;
  };

  void WorkerLoop(int worker);
  // Executes tasks until every deque (own, then victims) is empty. Catches
  // anything fn throws into epoch_error_; never lets an exception escape.
  void Drain(int worker);
  void CaptureEpochError(std::exception_ptr error);
  bool PopOwn(int worker, size_t* task);
  bool Steal(int thief, size_t* task);

  const int thread_count_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards epoch_ / stop_ / active_workers_ / fn_
  std::condition_variable work_cv_;    // workers wait here for a new epoch
  std::condition_variable parked_cv_;  // ParallelFor waits for stragglers
  uint64_t epoch_ = 0;
  int active_workers_ = 0;  // workers still draining the current epoch
  bool stop_ = false;
  const std::function<void(size_t, int)>* fn_ = nullptr;

  std::atomic<size_t> remaining_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  // Per-epoch failure state: first captured exception (as Status) wins and
  // flips epoch_abort_ so the remaining tasks are skipped, not run.
  std::mutex error_mu_;
  Status epoch_error_;
  std::atomic<bool> epoch_abort_{false};
  ExecutionContext* context_ = nullptr;  // of the current epoch; may be null
};

}  // namespace prefrep

#endif  // PREFREP_BASE_THREAD_POOL_H_
