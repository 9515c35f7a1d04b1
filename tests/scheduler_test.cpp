// The serve job pool (util/scheduler.hpp), the parallel_for
// caller-participation contract, and the batch driver's bit-identity
// across thread counts on parallel_for.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "flow/batch.hpp"
#include "util/parallel.hpp"
#include "util/scheduler.hpp"

namespace sitm {
namespace {

/// A job that parks its worker until `open` is set; `parked` counts the
/// workers it holds.
std::function<void()> gate(std::atomic<int>& parked, std::atomic<bool>& open) {
  return [&parked, &open] {
    parked.fetch_add(1);
    while (!open.load()) std::this_thread::yield();
  };
}

void wait_until(const std::atomic<int>& counter, int value) {
  while (counter.load() < value) std::this_thread::yield();
}

TEST(Scheduler, RunsEveryJobOnce) {
  std::vector<std::atomic<int>> ran(100);
  JobPool pool(4);
  for (std::size_t i = 0; i < ran.size(); ++i)
    pool.submit([&ran, i] { ran[i].fetch_add(1); });
  pool.shutdown();
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(pool.executed(), ran.size());
}

TEST(Scheduler, PriorityOrdersExecutionStart) {
  // One worker, parked by a gate job while the rest queue up: once the
  // gate opens, the start order is fully determined — highest priority
  // first, FIFO within a priority.
  JobPool pool(1);
  std::atomic<int> parked{0};
  std::atomic<bool> open{false};
  pool.submit(gate(parked, open));
  wait_until(parked, 1);

  std::vector<int> order;  // written by the one worker only
  pool.submit([&] { order.push_back(0); }, /*priority=*/0);
  pool.submit([&] { order.push_back(1); }, /*priority=*/5);
  pool.submit([&] { order.push_back(2); }, /*priority=*/1);
  pool.submit([&] { order.push_back(3); }, /*priority=*/5);
  open.store(true);
  pool.shutdown();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

TEST(Scheduler, PriorityIsGlobalAcrossWorkers) {
  // Both workers parked; three priority-0 jobs and then one priority-9 job
  // queue up.  Whichever worker frees up first must start the priority-9
  // job, although it was submitted last: there is no per-worker queue
  // for the low-priority jobs to hide in front of it.
  JobPool pool(2);
  std::atomic<int> parked{0};
  std::atomic<bool> open_a{false}, open_b{false};
  pool.submit(gate(parked, open_a));
  pool.submit(gate(parked, open_b));
  wait_until(parked, 2);

  // Worker b stays parked, so worker a runs all four: `order` is written
  // by one thread and read here only after `done` says it finished.
  std::vector<int> order;
  std::atomic<int> done{0};
  const auto record = [&](int priority) {
    return [&, priority] {
      order.push_back(priority);
      done.fetch_add(1);
    };
  };
  for (int i = 0; i < 3; ++i) pool.submit(record(0), /*priority=*/0);
  pool.submit(record(9), /*priority=*/9);

  open_a.store(true);
  wait_until(done, 4);
  EXPECT_EQ(order, (std::vector<int>{9, 0, 0, 0}));
  open_b.store(true);
  pool.shutdown();
}

TEST(Scheduler, BlockedWorkerDoesNotStallTheQueue) {
  JobPool pool(2);
  std::atomic<int> parked{0};
  std::atomic<bool> open{false};
  pool.submit(gate(parked, open));
  wait_until(parked, 1);

  // With one worker parked, the other must run every later job.
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { done.fetch_add(1); });
  wait_until(done, 8);

  open.store(true);
  pool.shutdown();
  EXPECT_EQ(pool.executed(), 9u);
}

TEST(ParallelFor, CallerThreadParticipates) {
  // Two jobs that each spin until both have started: this can only finish
  // promptly when two workers run concurrently.  parallel_for spawns
  // threads-1 OS threads and runs the worker loop on the calling thread,
  // so with threads = 2 the caller itself must pick up one of the jobs.
  std::atomic<int> arrived{0};
  std::atomic<bool> timed_out{false};
  parallel_for(2, 2, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(arrived.load(), 2);
}

// ---- batch bit-identity across thread counts ----------------------------

/// Serialize `j` with the timing/scheduling observables stripped — the only
/// fields allowed to differ across thread counts.
std::string normalized(const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kObject: {
      std::string out = "{";
      for (const auto& [k, v] : j.members()) {
        if (k == "wall_ms" || k == "total_ms" || k == "workers") continue;
        out += '"' + k + "\":" + normalized(v) + ',';
      }
      out += '}';
      return out;
    }
    case Json::Kind::kArray: {
      std::string out = "[";
      for (const auto& v : j.items()) out += normalized(v) + ',';
      out += ']';
      return out;
    }
    default: return j.dump(0);
  }
}

TEST(Scheduler, BatchResultsBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> names = {"chu133", "converta", "dff",
                                          "half"};
  BatchOptions opts;
  opts.flow.mapper.library.max_literals = 2;

  opts.threads = 1;
  const std::string serial = normalized(run_batch_suite(names, opts).to_json());
  for (const int threads : {2, 4, 0}) {
    opts.threads = threads;
    EXPECT_EQ(normalized(run_batch_suite(names, opts).to_json()), serial)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sitm
