// ReaderEpochs (common/epoch.h): the reader-epoch primitive behind every
// lock-free pointer swap in the store.
//
// The first three cases are single-threaded and deterministic: they drive
// the bank credits by hand and pin exactly when a retired object is freed.
// The synchronize() cases add one writer or two hand-over-hand reader
// threads; their assertions hold under any interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/epoch.h"

namespace bandana {
namespace {

/// Counts its own destruction, so a test sees exactly when it is freed.
struct Tracked {
  explicit Tracked(std::atomic<int>& freed) : freed(freed) {}
  ~Tracked() { freed.fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int>& freed;
};

TEST(ReaderEpochs, QuiescentRetireIsFreedOnTheFirstPass) {
  std::atomic<int> freed{0};  // outlives `epochs`, which frees leftovers
  ReaderEpochs epochs;
  { const auto done = epochs.enter(); }  // a reader that already left
  epochs.retire(std::make_unique<Tracked>(freed));
  EXPECT_EQ(epochs.retired(), 1u);
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(epochs.retired(), 0u);
  EXPECT_EQ(epochs.try_reclaim(), 0u);  // nothing left to free
}

TEST(ReaderEpochs, HandOverHandGuardsDoNotStarveReclaim) {
  // A guard always sits in the bank new readers enter when a pass starts,
  // so the two banks are never empty at once. A pass that waited for both
  // would never free anything; crediting the idle bank and flipping keeps
  // the backlog at the freshest retirements.
  std::atomic<int> freed{0};
  ReaderEpochs epochs;
  auto guard = epochs.enter();
  for (int pass = 0; pass < 100; ++pass) {
    epochs.retire(std::make_unique<Tracked>(freed));
    epochs.try_reclaim();
    EXPECT_LE(epochs.retired(), 2u) << "pass " << pass;
    auto next = epochs.enter();  // enter the bank that is now current...
    guard = std::move(next);     // ...before leaving the old one
  }
  EXPECT_GE(freed.load(), 98);
}

TEST(ReaderEpochs, HeldGuardPinsWhatWasRetiredWhileHeld) {
  std::atomic<int> freed{0};
  ReaderEpochs epochs;
  {
    const auto guard = epochs.enter();
    epochs.retire(std::make_unique<Tracked>(freed));
    for (int pass = 0; pass < 10; ++pass) {
      EXPECT_EQ(epochs.try_reclaim(), 0u) << "pass " << pass;
    }
    EXPECT_EQ(freed.load(), 0);
    EXPECT_EQ(epochs.retired(), 1u);
  }
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(ReaderEpochs, SynchronizeWaitsForAnEarlierGuard) {
  ReaderEpochs epochs;
  auto guard = epochs.enter();
  std::atomic<bool> returned{false};
  std::thread writer([&] {
    epochs.synchronize();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  guard = ReaderEpochs::Guard{};  // release
  writer.join();
  EXPECT_TRUE(returned.load());
}

TEST(ReaderEpochs, SynchronizeReturnsUnderAContinuousStreamOfGuards) {
  ReaderEpochs epochs;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Hand over hand: this reader is never outside a guard.
      auto guard = epochs.enter();
      while (!stop.load(std::memory_order_relaxed)) {
        auto next = epochs.enter();
        guard = std::move(next);
      }
    });
  }
  for (int i = 0; i < 100; ++i) epochs.synchronize();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace bandana
