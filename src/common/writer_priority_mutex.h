// A shared mutex whose writers cannot be starved by its readers.
// std::shared_mutex is a default glibc rwlock, which prefers readers: a
// steady stream of overlapping serving threads keeps a writer waiting for
// seconds. This rwlock prefers writers: once one waits, new shared
// acquisitions queue behind it. The price: a thread must never hold it
// shared twice (a writer queued in between would deadlock it).
#pragma once

#include <pthread.h>

#include <system_error>

namespace bandana {

class WriterPriorityMutex {
 public:
  WriterPriorityMutex() = default;
  WriterPriorityMutex(const WriterPriorityMutex&) = delete;
  WriterPriorityMutex& operator=(const WriterPriorityMutex&) = delete;

  void lock() { check(pthread_rwlock_wrlock(&rw_)); }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { check(pthread_rwlock_rdlock(&rw_)); }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  static void check(int r) {
    if (r != 0) throw std::system_error(r, std::generic_category());
  }
  pthread_rwlock_t rw_ = PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP;
};

}  // namespace bandana
