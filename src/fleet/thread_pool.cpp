#include "fleet/thread_pool.hpp"

#include <exception>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || \
    defined(_M_IX86)
#define ORIGIN_POOL_X86 1
#include <immintrin.h>
#endif

namespace origin::fleet {

namespace {

/// One polling step: the x86 spin-wait hint, or a yield elsewhere.
inline void cpu_relax() {
#ifdef ORIGIN_POOL_X86
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` until it holds or ThreadPool::kIdleSpin has passed;
/// returns its last value.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kIdleSpin;
  do {
    if (ready()) return true;
    cpu_relax();
  } while (std::chrono::steady_clock::now() < deadline);
  return ready();
}

}  // namespace

/// Shared bookkeeping for one run_batch call. Tasks hold a shared_ptr so
/// the state outlives the caller, which may return as soon as it sees
/// `remaining` reach zero while the last task is still notifying.
struct ThreadPool::Batch {
  std::atomic<bool> cancelled{false};
  std::atomic<std::size_t> remaining{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  // Written under mutex; the caller reads it once `remaining` is zero.
  std::exception_ptr first_exception;

  void finish_one() {
    // The count changes under the mutex the caller's wait predicate reads
    // it under; a spinning caller reads it lock-free.
    std::lock_guard<std::mutex> lock(mutex);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv.notify_all();
    }
  }

  bool done() const { return remaining.load(std::memory_order_acquire) == 0; }

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
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    shutting_down_.store(true, std::memory_order_relaxed);
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

bool ThreadPool::try_get_task(std::size_t index, Task& out) {
  bool got = index == 0 ? queues_[0]->try_steal(out)
                         : queues_[index]->try_pop(out);
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; !got && k < n; ++k) {
    if (queues_[(index + k) % n]->try_steal(out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      got = true;
    }
  }
  if (got) queued_.fetch_sub(1, std::memory_order_relaxed);
  return got;
}

void ThreadPool::worker_loop(std::size_t index) {
  const auto work_or_shutdown = [this] {
    return queued_.load(std::memory_order_relaxed) > 0 ||
           shutting_down_.load(std::memory_order_relaxed);
  };
  Task task;
  for (;;) {
    if (try_get_task(index, task)) {
      task();
      task = nullptr;  // release captures before idling
      continue;
    }
    if (shutting_down_.load(std::memory_order_relaxed)) return;
    if (spin_until(work_or_shutdown)) continue;
    backoffs_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    // run_batch raises queued_ under sleep_mutex_ and notifies after, so a
    // batch that raced the spin above is either seen by the predicate or
    // wakes the wait: no wakeup is lost. The timeout is only a safety net.
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(5), work_or_shutdown);
  }
}

void ThreadPool::run_batch(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->remaining.store(n, std::memory_order_relaxed);

  {
    // Raised under the mutex the park predicate reads it under, and before
    // the pushes, so a spinning worker starts on the first task while later
    // ones are still being queued. (Takes only lower it: they cannot make
    // a parked worker miss work.)
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    queued_.fetch_add(n, std::memory_order_relaxed);
  }
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
  sleep_cv_.notify_all();

  // The caller is participant 0: it works until nothing is left to take.
  // Every task was pushed above, so once no queue yields one, the rest are
  // running on workers.
  Task task;
  while (try_get_task(0, task)) {
    task();
    task = nullptr;
  }
  if (!spin_until([&] { return batch->done(); })) {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait(lock, [&] { return batch->done(); });
  }
  if (batch->first_exception) std::rethrow_exception(batch->first_exception);
}

}  // namespace origin::fleet
