// Reader epochs: the one reclamation scheme for pointers that readers load
// without a lock while a writer swaps them (BandanaTable's State,
// StoreCluster's PlacementMap).
//
// Protocol: a reader enter()s — bumping `entered` in a thread-striped slot
// of the bank the generation's parity names — THEN loads the pointer; its
// Guard bumps the same slot's `exited` on release. A writer stores the new
// pointer, then retire()s the old object or synchronize()s and frees it.
//
// Safety: the enter, the reader's load, the writer's store and every
// counter load below are seq_cst, so a reader whose enter a drain check
// misses is ordered after the store and loads the new pointer. A drain
// check loads a slot's `exited` BEFORE its `entered`: both are monotone
// and every exit follows its enter, so exited(t1) == entered(t2), t1 < t2,
// proves the slot was empty at t1 and nobody entered it until t2. An
// object retired at sequence s is freed once BOTH banks have drained in
// checks made after s: every reader that could hold it is gone.
//
// Progress: new readers enter the current bank, which a continuous stream
// never empties, so a step checks only the bank readers are NOT entering.
// Once that bank drains it is credited and the generation flips, handing
// the other bank its turn; a step does this at most twice. With no readers
// one step credits both banks; under load successive steps credit them
// alternately, so the retired list stays a couple of entries long.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bandana {

class ReaderEpochs {
 public:
  /// A read-side section: what the reader loads after enter() stays alive
  /// until the guard is released (destroyed or moved over). Move-only.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& o) noexcept
        : epochs_(std::exchange(o.epochs_, nullptr)),
          bank_(o.bank_),
          slot_(o.slot_) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        release();
        epochs_ = std::exchange(o.epochs_, nullptr);
        bank_ = o.bank_;
        slot_ = o.slot_;
      }
      return *this;
    }
    ~Guard() { release(); }

    explicit operator bool() const { return epochs_ != nullptr; }

   private:
    friend class ReaderEpochs;
    Guard(const ReaderEpochs* epochs, std::uint32_t bank, std::uint32_t slot)
        : epochs_(epochs), bank_(bank), slot_(slot) {}
    void release() noexcept {
      if (epochs_ == nullptr) return;
      epochs_->banks_[bank_][slot_].exited.fetch_add(
          1, std::memory_order_release);
      epochs_ = nullptr;
    }
    const ReaderEpochs* epochs_ = nullptr;
    std::uint32_t bank_ = 0;
    std::uint32_t slot_ = 0;
  };

  ReaderEpochs() = default;
  ReaderEpochs(const ReaderEpochs&) = delete;
  ReaderEpochs& operator=(const ReaderEpochs&) = delete;

  /// Load the protected pointer (seq_cst) only after this returns.
  Guard enter() const {
    const auto bank =
        static_cast<std::uint32_t>(gen_.load(std::memory_order_relaxed) & 1);
    const std::uint32_t slot = thread_slot();
    banks_[bank][slot].entered.fetch_add(1, std::memory_order_seq_cst);
    return Guard(this, bank, slot);
  }

  /// `object` is already unreachable through the protected pointer; a
  /// later try_reclaim frees it once no reader can hold it. `bytes` is the
  /// heap it holds, as reported by retired_bytes() until it is freed.
  template <typename T>
  void retire(std::unique_ptr<T> object, std::uint64_t bytes = 0) {
    std::lock_guard lock(mu_);
    retired_.push_back(
        {Owned(object.release(), [](void* p) { delete static_cast<T*>(p); }),
         ++seq_, bytes});
  }

  /// One non-blocking step, then free every retired object both banks
  /// have drained past. Returns objects freed.
  std::size_t try_reclaim() {
    std::lock_guard lock(mu_);
    if (retired_.empty()) return 0;
    const std::uint64_t safe = step_locked();
    return std::erase_if(retired_,
                         [safe](const Retired& r) { return r.seq <= safe; });
  }

  /// Block until every guard entered before this call has been released.
  void synchronize() {
    std::unique_lock lock(mu_);
    const std::uint64_t target = ++seq_;
    while (step_locked() < target) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }

  /// Retired objects still waiting to be freed.
  std::size_t retired() const {
    std::lock_guard lock(mu_);
    return retired_.size();
  }
  /// Sum of the retired objects' `bytes` (see retire).
  std::uint64_t retired_bytes() const {
    std::lock_guard lock(mu_);
    std::uint64_t bytes = 0;
    for (const Retired& r : retired_) bytes += r.bytes;
    return bytes;
  }

 private:
  static constexpr std::uint32_t kSlots = 16;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> entered{0};
    std::atomic<std::uint64_t> exited{0};
  };
  using Owned = std::unique_ptr<void, void (*)(void*)>;
  struct Retired {
    Owned object;
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
  };

  /// Thread-striped: the hot-path RMWs stay on a mostly private line.
  static std::uint32_t thread_slot() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return slot;
  }

  /// exited-then-entered per-slot equality check (see file comment).
  bool drained(std::uint32_t bank) const {
    for (const Slot& slot : banks_[bank]) {
      const std::uint64_t exited = slot.exited.load(std::memory_order_seq_cst);
      if (slot.entered.load(std::memory_order_seq_cst) != exited) return false;
    }
    return true;
  }

  /// Up to twice: credit the bank readers are not entering with seq_ once
  /// it has drained, and flip. Returns the sequence both banks are
  /// credited past. Caller holds mu_.
  std::uint64_t step_locked() {
    for (int round = 0; round < 2; ++round) {
      const auto idle = static_cast<std::uint32_t>(
          (gen_.load(std::memory_order_seq_cst) + 1) & 1);
      if (!drained(idle)) break;
      credited_[idle] = seq_;
      gen_.fetch_add(1, std::memory_order_seq_cst);
    }
    return std::min(credited_[0], credited_[1]);
  }

  /// Mutable: readers of const owners still register.
  mutable Slot banks_[2][kSlots];
  std::atomic<std::uint64_t> gen_{0};
  /// Guards everything below. Never taken by readers.
  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;  ///< Retirements and synchronize() calls so far.
  std::uint64_t credited_[2] = {0, 0};
  std::vector<Retired> retired_;
};

}  // namespace bandana
