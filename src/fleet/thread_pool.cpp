#include "fleet/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>

namespace origin::fleet {

/// Shared bookkeeping for one run_batch call. Tasks hold a shared_ptr so
/// the state outlives the blocking caller even on exotic unwind paths.
struct ThreadPool::Batch {
  std::atomic<bool> cancelled{false};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;         // guarded by mutex
  std::exception_ptr first_exception;  // guarded by mutex

  void finish_one() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--remaining == 0) done_cv.notify_all();
  }

  void fail(std::exception_ptr e) {
    cancelled.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex);
    if (!first_exception) first_exception = std::move(e);
  }
};

unsigned ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    shutting_down_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.steals = steals_.load(std::memory_order_relaxed);
  out.backoffs = backoffs_.load(std::memory_order_relaxed);
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return out;
}

bool ThreadPool::try_get_task(std::size_t worker_index, Task& out) {
  if (queues_[worker_index]->try_pop(out)) return true;
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    if (queues_[(worker_index + k) % n]->try_steal(out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool ThreadPool::has_queued_work() const {
  for (const auto& q : queues_) {
    if (!q->empty()) return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  Task task;
  for (;;) {
    if (try_get_task(worker_index, task)) {
      task();
      task = nullptr;  // release captures before sleeping
      continue;
    }
    backoffs_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (shutting_down_) return;
    // The predicate reads the queues under sleep_mutex_, and run_batch
    // notifies under it after pushing, so a push that raced the scan
    // above is either seen by the predicate or wakes the wait: no wakeup
    // is lost. The timeout is only a safety net.
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(5),
                       [this] { return shutting_down_ || has_queued_work(); });
  }
}

void ThreadPool::run_batch(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->remaining = n;

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t target = submit_cursor_++ % queues_.size();
    const std::size_t depth = queues_[target]->size() + 1;
    std::uint64_t prev = max_queue_depth_.load(std::memory_order_relaxed);
    while (prev < depth && !max_queue_depth_.compare_exchange_weak(
                               prev, depth, std::memory_order_relaxed)) {
    }
    queues_[target]->push([batch, &fn, i] {
      if (!batch->cancelled.load(std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          batch->fail(std::current_exception());
        }
      }
      batch->finish_one();
    });
  }
  {
    // Under the lock: see worker_loop for the lost-wakeup argument.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }

  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait(lock, [&] { return batch->remaining == 0; });
  }
  if (batch->first_exception) std::rethrow_exception(batch->first_exception);
}

}  // namespace origin::fleet
