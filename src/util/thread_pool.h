// A fixed-size thread pool for the crypto- and shuffle-heavy loops: the
// Stash Shuffle's distribution phase, batched outer/inner opens, and the
// epoch drains (the paper notes these parallelize well because their cost
// is dominated by independent public-key operations).
//
// ParallelFor is nest-safe: the calling thread runs chunks too and waits
// only for its own call's indices, so a task already running on a pool may
// call ParallelFor on the same pool without deadlocking, and concurrent
// callers never wait on each other.  That is what lets every drain in the
// process share ThreadPool::Process() — e.g. the cluster coordinator fans
// its groups out on it, and each group's drain fans its opens out on it
// again.
#ifndef PROCHLO_SRC_UTIL_THREAD_POOL_H_
#define PROCHLO_SRC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/thread_annotations.h"

namespace prochlo {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool: one worker per CPU in the process's affinity
  // mask, minus one for the thread that calls ParallelFor (which runs
  // chunks itself), and at least one.  Built on first use, never destroyed.
  static ThreadPool& Process();

  // Enqueues a task; tasks may run on any worker in any order.
  void Submit(std::function<void()> task);

  // Blocks until every queued task has finished.  Not for use from a task
  // running on this pool (it would wait for itself).
  void Wait();

  // Runs fn(i) for i in [0, n) across the pool and the calling thread, and
  // returns once every index has run.  Safe to call from a task on this
  // pool; waits for this call's indices only.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  CondVar task_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
};

// Null-tolerant dispatch: runs fn(i) for i in [0, n) on the pool when one is
// supplied, inline otherwise.  The common shape for the crypto/shuffle hot
// loops, which all take an optional borrowed pool.
inline void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
  }
}

}  // namespace prochlo

#endif  // PROCHLO_SRC_UTIL_THREAD_POOL_H_
