#include "util/scheduler.hpp"

#include <limits>

#include "util/parallel.hpp"

namespace sitm {

JobPool::JobPool(int threads)
    : num_workers_(resolve_worker_threads(
          threads, std::numeric_limits<std::size_t>::max())) {
  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int t = 0; t < num_workers_; ++t)
    threads_.emplace_back([this] { worker_loop(); });
}

JobPool::~JobPool() { shutdown(); }

void JobPool::submit(std::function<void()> fn, int priority) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    queue_.push(Job{priority, next_seq_++, std::move(fn)});
  }
  // Wake every idle worker, not one: measured on the serve workload,
  // notify_one raised peak RSS.
  cv_.notify_all();
}

bool JobPool::run_next(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  const std::function<void()> fn = std::move(queue_.top().fn);
  queue_.pop();
  lock.unlock();
  fn();
  executed_.fetch_add(1, std::memory_order_relaxed);
  lock.lock();
  return true;
}

void JobPool::worker_loop() {
  std::unique_lock<std::mutex> lock(m_);
  while (true) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (!run_next(lock)) return;  // stopping, and the queue is drained
  }
}

void JobPool::shutdown() {
  std::unique_lock<std::mutex> lock(m_);
  stopping_ = true;
  lock.unlock();
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  // Jobs submitted after the last worker exited run here.
  lock.lock();
  while (run_next(lock)) {
  }
}

}  // namespace sitm
