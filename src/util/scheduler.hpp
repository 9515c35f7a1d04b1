#pragma once
// Single-queue priority job pool: the job-execution substrate of the serve
// front-end.  Fork-join loops (synth, map, batch) use parallel_for
// (util/parallel.hpp) instead; this pool is for prioritized jobs that
// arrive over time.
//
// Design: one priority queue (highest priority first, FIFO within a
// priority) under one mutex and one condvar, drained by `threads` workers.
// Jobs here are entire Flow runs — milliseconds to seconds — so the lock
// is never the bottleneck, and one queue means priority is global: an idle
// worker always starts the best job anywhere in the pool.  Priorities order
// *execution start*, not completion.
//
// Drain contract: every submitted job runs exactly once.  shutdown() lets
// the workers empty the queue before they exit; a job whose submit races
// or follows shutdown() runs on the shutdown caller's sweep, or on the
// destructor's.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sitm {

class JobPool {
 public:
  /// `threads` resolved like resolve_worker_threads (<= 0 = one per
  /// hardware core, always >= 1).  All workers are spawned up front.
  explicit JobPool(int threads);
  ~JobPool();

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Enqueue a job.  Higher `priority` starts earlier; ties run FIFO.
  /// Jobs must not throw — wrap the body (serve captures failures into its
  /// responses); an escaping exception terminates.
  void submit(std::function<void()> fn, int priority = 0);

  /// Stop the workers once the queue is empty, join them, and run anything
  /// submitted meanwhile on the calling thread.  Idempotent; the destructor
  /// calls it.
  void shutdown();

  int num_workers() const { return num_workers_; }
  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    int priority = 0;
    std::uint64_t seq = 0;  ///< submission order, FIFO tie-break
    mutable std::function<void()> fn;  ///< moved out of the queue's top()
  };
  /// priority_queue puts the *greatest* element on top, so "less" means
  /// "starts later": lower priority, or same priority submitted later.
  struct StartsLater {
    bool operator()(const Job& a, const Job& b) const {
      return a.priority != b.priority ? a.priority < b.priority : a.seq > b.seq;
    }
  };

  /// Pop and run the best queued job; false when the queue is empty.
  /// Entered and left with `lock` held; the job runs unlocked.
  bool run_next(std::unique_lock<std::mutex>& lock);
  void worker_loop();

  int num_workers_ = 1;

  std::mutex m_;  ///< guards queue_, next_seq_ and stopping_
  std::condition_variable cv_;
  std::priority_queue<Job, std::vector<Job>, StartsLater> queue_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  std::atomic<std::uint64_t> executed_{0};
  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

}  // namespace sitm
