// Work-stealing thread pool for fleet simulation. Workers own one
// TaskQueue each; an idle worker first drains its own queue, then steals
// from its peers (round-robin starting after itself), then sleeps on the
// pool condition variable. Batches are the unit of use: run_batch()
// schedules fn(0..n-1), blocks until every index has run or been
// cancelled, and rethrows the first exception thrown by any task —
// remaining unstarted tasks of a failed batch are skipped (cancelled), so
// a broken shard fails the whole run promptly instead of burning cores.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/task_queue.hpp"

namespace origin::fleet {

/// Scheduler-health counters, accumulated over the pool's lifetime. All
/// are wall-clock/interleaving dependent — report them, never assert on
/// them (see obs::MetricDef::deterministic).
struct PoolStats {
  std::uint64_t steals = 0;    // tasks taken from a peer's queue
  std::uint64_t backoffs = 0;  // times a worker found no work and slept
  std::uint64_t max_queue_depth = 0;  // deepest any queue got at push time
};

class ThreadPool {
 public:
  /// `threads` == 0 is clamped to 1. The pool spins up immediately and
  /// joins in the destructor.
  explicit ThreadPool(unsigned threads = hardware_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for every i in [0, n) across the workers and blocks until
  /// the batch completes. If any call throws, outstanding tasks of this
  /// batch are cancelled and the first exception (in completion order) is
  /// rethrown here. Reentrant calls from within tasks are not supported.
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardware_threads();

  /// Snapshot of the scheduler counters (relaxed reads; exact once the
  /// pool is quiescent, e.g. after run_batch returns).
  PoolStats stats() const;

 private:
  struct Batch;

  void worker_loop(std::size_t worker_index);
  bool try_get_task(std::size_t worker_index, Task& out);
  bool has_queued_work() const;

  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> backoffs_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool shutting_down_ = false;
  std::size_t submit_cursor_ = 0;  // round-robin push target
};

}  // namespace origin::fleet
