#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace bandana {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

ThreadPool::TaskGroup::~TaskGroup() { wait_done(); }

void ThreadPool::TaskGroup::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  try {
    pool_.submit([this, task = std::move(task)]() mutable {
      std::exception_ptr failed;
      try {
        task();
      } catch (...) {
        failed = std::current_exception();
      }
      // The task's captures go first, and the notify happens under the
      // lock: once pending_ reads 0 the waiter may destroy the group.
      task = nullptr;
      std::lock_guard<std::mutex> lock(mu_);
      if (failed && !error_) error_ = std::move(failed);
      if (--pending_ == 0) done_cv_.notify_all();
    });
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    throw;
  }
}

void ThreadPool::TaskGroup::wait_done() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::TaskGroup::wait() {
  wait_done();
  std::lock_guard<std::mutex> lock(mu_);
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace bandana
