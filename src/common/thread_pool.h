// Minimal fixed-size thread pool with a blocking parallel_for.
//
// SHP refines each level's buckets through parallel_for; K-means submits
// its own fixed assignment chunks and waits. Either way the work is cut
// into chunks whose boundaries depend only on the input size and the pool
// size, never on scheduling, so results do not depend on which worker ran
// which chunk.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bandana {

class ThreadPool {
 public:
  /// threads == 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue an arbitrary task. The task must not throw: workers run it
  /// unguarded, so an escaping exception terminates the process. A caller
  /// that can fail catches inside the task and reports back itself.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Chunks parallel_for cuts its range into per worker.
  static constexpr std::size_t kChunksPerWorker = 4;

  /// Run fn(begin, end) over [0, n) cut into min(n, kChunksPerWorker *
  /// size()) chunks whose sizes differ by at most one, queued in index
  /// order; each idle worker takes the next one, so a slow chunk holds up
  /// only its own worker. Blocks until complete. Chunk boundaries depend
  /// only on n and the pool size, so any reduction the caller does per
  /// chunk is reproducible.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace bandana
