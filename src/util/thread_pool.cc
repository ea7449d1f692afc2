#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>

namespace prochlo {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& w : workers_) {
    w.join();
  }
}

ThreadPool& ThreadPool::Process() {
  static ThreadPool* const instance = [] {
    size_t cpus = 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      cpus = static_cast<size_t>(CPU_COUNT(&set));
    } else {
      cpus = std::thread::hardware_concurrency();
    }
    return new ThreadPool(std::max<size_t>(cpus, 2) - 1);  // at least one worker
  }();
  return *instance;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) {
    all_done_.Wait(mu_);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // Chunk the index space so that small bodies do not drown in queue
  // traffic; the caller is one more runner beside the workers.
  const size_t chunks = std::min(n, (num_threads() + 1) * 4);
  if (chunks == 0) {
    return;
  }
  // Shared with the helper tasks, which may outlive this call: a helper
  // dequeued after every chunk was claimed sees `next` past the end and
  // exits without touching `fn`.
  struct Job {
    const std::function<void(size_t)>* fn;
    size_t n;
    size_t per_chunk;
    size_t chunks;
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar all_done;
    size_t done GUARDED_BY(mu) = 0;
  };
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->per_chunk = (n + chunks - 1) / chunks;
  job->chunks = chunks;
  auto run_chunks = [job] {
    for (;;) {
      const size_t c = job->next.fetch_add(1);
      if (c >= job->chunks) {
        return;
      }
      const size_t begin = c * job->per_chunk;
      const size_t end = std::min(job->n, begin + job->per_chunk);
      for (size_t i = begin; i < end; ++i) {
        (*job->fn)(i);
      }
      MutexLock lock(job->mu);
      if (++job->done == job->chunks) {
        job->all_done.NotifyAll();
      }
    }
  };
  const size_t helpers = std::min(num_threads(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit(run_chunks);
  }
  // The caller claims chunks too, so the call completes even when every
  // worker is busy — including busy waiting in an outer ParallelFor.
  run_chunks();
  MutexLock lock(job->mu);
  while (job->done != job->chunks) {
    job->all_done.Wait(job->mu);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && tasks_.empty()) {
        task_available_.Wait(mu_);
      }
      if (tasks_.empty()) {
        return;  // Shutting down with an empty queue.
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) {
        all_done_.NotifyAll();
      }
    }
  }
}

}  // namespace prochlo
