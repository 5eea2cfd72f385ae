// Minimal fixed-size thread pool.
//
// A caller that waits for its own tasks submits them through a TaskGroup:
// K-means' fixed assignment chunks and the async file backend's
// thread-pool waves. SHP submits its bucket tasks directly and collects
// finished tables itself (partition/shp.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
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
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue an arbitrary task. The task must not throw: workers run it
  /// unguarded, so an escaping exception terminates the process. A caller
  /// that can fail catches inside the task and reports back itself.
  void submit(std::function<void()> task);

  /// Tasks one caller submits and then waits for. wait() returns once every
  /// task submitted through the group has finished, however much other
  /// work the pool holds, so a group waits neither for another caller's
  /// tasks nor, when it is used from inside a pool task, for that task
  /// itself. A task that throws is caught; wait() rethrows the first
  /// exception once every task has finished.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    /// Waits for the group's tasks without rethrowing, so no task outlives
    /// what it captured by reference.
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void submit(std::function<void()> task);
    void wait();

   private:
    void wait_done();

    ThreadPool& pool_;
    std::mutex mu_;
    std::condition_variable done_cv_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;
  };

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

}  // namespace bandana
