#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace bandana {
namespace {

// The destructor runs every queued task before it joins the workers.
TEST(ThreadPool, SubmitAndWait) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::size_t> sum{0};
    ThreadPool::TaskGroup group(pool);
    for (std::size_t i = 0; i < 100; ++i) {
      group.submit([&sum, i] { sum.fetch_add(i); });
    }
    group.wait();
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// A group waits for its own tasks, not for the whole pool: an unrelated
// task (another caller's request, say) may stay blocked. The blocker gives
// up at a deadline, so a group that waited for the pool to go idle fails
// here instead of hanging.
TEST(ThreadPool, TaskGroupWaitsOnlyForItsOwnTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_done{false};
  ThreadPool::TaskGroup blocker(pool);
  blocker.submit([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    blocker_done.store(true);
  });
  std::atomic<std::size_t> sum{0};
  ThreadPool::TaskGroup group(pool);
  for (std::size_t i = 0; i < 100; ++i) {
    group.submit([&sum, i] { sum.fetch_add(i); });
  }
  group.wait();
  EXPECT_FALSE(blocker_done.load());
  EXPECT_EQ(sum.load(), 4950u);
  release.store(true);
  blocker.wait();
  EXPECT_TRUE(blocker_done.load());
}

// A task that throws does not end the process: every task still runs,
// wait() rethrows the first exception once, and the pool and the group
// stay usable.
TEST(ThreadPool, TaskGroupRethrowsATaskException) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  ThreadPool::TaskGroup group(pool);
  for (std::size_t t = 0; t < 8; ++t) {
    group.submit([&ran, t] {
      ran.fetch_add(1);
      if (t % 3 == 0) throw std::runtime_error("task");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8u);
  std::atomic<std::size_t> sum{0};
  for (std::size_t i = 0; i < 10; ++i) {
    group.submit([&sum, i] { sum.fetch_add(i); });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 45u);
}

// A group waited for from inside a pool task counts only its own tasks,
// which the other worker runs; the waiting task does not wait for itself.
TEST(ThreadPool, TaskGroupWaitsInsideAPoolTask) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::atomic<int> inner{0};
  pool.submit([&] {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) group.submit([&] { inner.fetch_add(1); });
    group.wait();
    std::lock_guard lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(20), [&] { return done; }));
  EXPECT_EQ(inner.load(), 8);
}

}  // namespace
}  // namespace bandana
