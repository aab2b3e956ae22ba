// Work-stealing thread pool for fleet simulation and serving. A pool of
// `n` participants is the thread that calls run_batch() plus n − 1
// workers; each participant owns one TaskQueue. Batches are the unit of
// use: run_batch() pushes fn(0..n-1) round-robin over the queues, then the
// caller drains its own queue (oldest first) and steals from the workers'
// like any worker would, and blocks only once every task is taken and
// some are still running elsewhere. A worker drains its own queue
// (newest first), then steals from its peers (round-robin starting after
// itself). A `ThreadPool(1)` spawns no thread: every task runs on the
// caller in submission order, so there is one pool path at every thread
// count.
//
// Spin, then park. A participant that runs out of work polls for a
// bounded time (kIdleSpin) before it blocks: an idle worker polls for
// queued work before parking on the pool condition variable, and the
// caller polls the batch's remaining-task count before sleeping on the
// batch's condition variable. A serve loop runs one short batch per tick
// with a short serial gap in between; the spin keeps both ends of that
// gap off the futex path. The worker's poll also watches for shutdown, so
// the destructor never waits out a spin.
//
// run_batch() blocks until every index has run or been cancelled and
// rethrows the first exception thrown by any task — remaining unstarted
// tasks of a failed batch are skipped (cancelled), so a broken shard fails
// the whole run promptly instead of burning cores.
#pragma once

#include <atomic>
#include <chrono>
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
  std::uint64_t backoffs = 0;  // times a worker spun out idle and parked
  std::uint64_t max_queue_depth = 0;  // deepest any queue got at push time
};

class ThreadPool {
 public:
  /// How long an idle participant polls before it blocks. It covers the
  /// serve loop's serial section between two ticks' batches (admission
  /// and publish, about 100 µs), so back-to-back ticks reach spinning
  /// workers instead of sleeping ones; a longer idle period parks.
  static constexpr std::chrono::microseconds kIdleSpin{200};

  /// `threads` participants, counting the caller of run_batch(); 0 is
  /// clamped to 1. The pool starts threads − 1 workers immediately and
  /// joins them in the destructor.
  explicit ThreadPool(unsigned threads = hardware_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants: the workers plus the calling thread.
  unsigned thread_count() const { return static_cast<unsigned>(queues_.size()); }

  /// Runs fn(i) for every i in [0, n) on the caller and the workers and
  /// blocks until the batch completes. If any call throws, outstanding
  /// tasks of this batch are cancelled and the first exception (in
  /// completion order) is rethrown here. Reentrant calls from within
  /// tasks are not supported, and one thread drives the pool at a time.
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardware_threads();

  /// Snapshot of the scheduler counters (relaxed reads; exact once the
  /// pool is quiescent, e.g. after run_batch returns).
  PoolStats stats() const;

 private:
  struct Batch;

  void worker_loop(std::size_t index);
  /// Participant `index` takes a task: its own queue first (index 0 is
  /// the caller's and is taken oldest first), then a peer's.
  bool try_get_task(std::size_t index, Task& out);

  std::vector<std::unique_ptr<TaskQueue>> queues_;  // [0] is the caller's
  std::vector<std::thread> workers_;                // own queues_[1..]

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> backoffs_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  /// Tasks of the current batch not yet taken, over all queues (raised
  /// before the pushes): what idle workers poll and what the park
  /// predicate reads.
  std::atomic<std::size_t> queued_{0};

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> shutting_down_{false};
  std::size_t submit_cursor_ = 0;  // round-robin push target
};

}  // namespace origin::fleet
