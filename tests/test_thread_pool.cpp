#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace bandana {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) touched[i].fetch_add(1);
  });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ChunkBoundariesDeterministic) {
  // Static chunking: recording chunk boundaries twice gives the same set.
  auto boundaries = [](ThreadPool& pool) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> out;
    pool.parallel_for(101, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  ThreadPool pool(4);
  EXPECT_EQ(boundaries(pool), boundaries(pool));
}

TEST(ThreadPool, ParallelForCutsSeveralBalancedChunksPerWorker) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(30, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), ThreadPool::kChunksPerWorker * 2);
  std::size_t next = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, next);
    EXPECT_TRUE(e - b == 3 || e - b == 4) << b << ".." << e;
    next = e;
  }
  EXPECT_EQ(next, 30u);
}

// Idle workers take queued chunks: while one worker is held on the first
// chunk, the other runs every remaining chunk.
TEST(ThreadPool, IdleWorkersTakeTheRemainingChunks) {
  ThreadPool pool(2);
  const std::size_t chunks = ThreadPool::kChunksPerWorker * 2;
  std::atomic<std::size_t> done{0};
  bool saw_all_others = false;
  pool.parallel_for(chunks, [&](std::size_t b, std::size_t) {
    if (b == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (done.load() < chunks - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      saw_all_others = done.load() == chunks - 1;
    }
    done.fetch_add(1);
  });
  EXPECT_TRUE(saw_all_others);
  EXPECT_EQ(done.load(), chunks);
}

// parallel_for waits for its own chunks, not for the whole pool: an
// unrelated task (another caller's request, say) may stay blocked. The
// blocker gives up at a deadline, so a parallel_for that waited for the
// pool to go idle fails here instead of hanging.
TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnChunks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_done{false};
  pool.submit([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    blocker_done.store(true);
  });
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_FALSE(blocker_done.load());
  EXPECT_EQ(sum.load(), 4950u);
  release.store(true);
  pool.wait_idle();
  EXPECT_TRUE(blocker_done.load());
}

// A chunk that throws does not end the process: every chunk still runs,
// parallel_for rethrows the first exception, and the pool stays usable.
TEST(ThreadPool, ParallelForRethrowsAChunkException) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t b, std::size_t) {
                                   ran.fetch_add(1);
                                   if (b % 3 == 0) {
                                     throw std::runtime_error("chunk");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), ThreadPool::kChunksPerWorker * 2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
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
