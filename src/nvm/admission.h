// Queue-depth admission control for block-IO submission (paper §2.2).
//
// The paper keeps the NVM device's queue depth bounded: latency past the
// bandwidth knee is a queueing artifact, and an unbounded submitter turns
// one oversized request into a device-monopolizing burst. This controller
// caps the number of outstanding block IOs at queue_depth × channels —
// reads AND writes: the write-aware NvmIoEngine routes publish/republish
// traffic through the same gate, so a live republish consumes read slots
// exactly like the device's shared submission queue would. An IO past the
// cap is only submitted once an earlier one completes, so the Fig. 5
// hockey stick emerges from queueing at the admission gate rather than
// from unbounded submission.
//
// A slot is held through the IO's full completion (channel service plus
// the fixed submission/completion overhead), which reproduces Fig. 2's
// queue-depth trade-off: at per-channel depth 1 the overhead is exposed
// (channels idle between reads, bandwidth below peak), while a depth of
// roughly 1 + base_latency/service hides it and the channel queue becomes
// the binding constraint again.
//
// Simulated-time semantics: completions are tracked as timestamps, so the
// controller is exercised under the owner's timing lock (Store holds
// timing_mu_) and needs no synchronization of its own.
//
// The event-driven NvmIoEngine (nvm/io_engine.h) embeds this controller at
// its submission boundary.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "nvm/nvm_config.h"

namespace bandana {

class AdmissionController {
 public:
  /// `queue_depth` is the per-channel cap on outstanding IOs (reads plus
  /// writes); 0 disables admission control (unbounded submission, the
  /// pre-admission behavior).
  AdmissionController(unsigned channels, unsigned queue_depth)
      : max_outstanding_(static_cast<std::uint64_t>(channels) * queue_depth) {}

  bool bounded() const { return max_outstanding_ > 0; }
  std::uint64_t max_outstanding() const { return max_outstanding_; }
  std::size_t outstanding() const { return completions_.size(); }

  /// Earliest simulated time (>= arrival_us) at which the next read may be
  /// submitted. Reads completed by arrival_us free their slots first; if
  /// the gate is still full, the read waits for the earliest completion
  /// (whose slot it consumes).
  double admit(double arrival_us) {
    if (!bounded()) return arrival_us;
    while (!completions_.empty() && completions_.top() <= arrival_us) {
      completions_.pop();
    }
    if (completions_.size() < max_outstanding_) return arrival_us;
    const double freed_at = completions_.top();
    completions_.pop();
    return freed_at;
  }

  /// Record a submitted read's completion time (it holds a slot until then).
  void on_submitted(double completion_us) {
    if (bounded()) completions_.push(completion_us);
  }

  void reset() { completions_ = {}; }

 private:
  std::uint64_t max_outstanding_;
  std::priority_queue<double, std::vector<double>, std::greater<>>
      completions_;
};

/// Token bucket over simulated-time intervals for trickle republish
/// (Store::begin_trickle_republish): interval k is
/// [k * interval_us, (k+1) * interval_us), and at most
/// `blocks_per_interval` block writes may be admitted inside any one
/// interval. Unused allowance does NOT roll over — a stalled pump cannot
/// save up a burst that defeats the rate limit. Like AdmissionController
/// this is simulated-time bookkeeping: the owner serializes calls (the
/// trickle session holds its own mutex).
class TrickleRateLimiter {
 public:
  /// Throws std::invalid_argument when rate-limited (blocks_per_interval
  /// > 0) with a non-positive interval_us.
  explicit TrickleRateLimiter(const RepublishConfig& cfg);

  bool unlimited() const { return cfg_.blocks_per_interval == 0; }
  const RepublishConfig& config() const { return cfg_; }

  /// Blocks admissible at simulated time `now_us` (UINT64_MAX when
  /// unlimited). now_us may repeat or move backwards within an interval;
  /// consumption is tracked per interval index.
  std::uint64_t allowance(double now_us) const;

  /// Consume `blocks` of the interval containing `now_us`. `blocks` must
  /// not exceed allowance(now_us); consumption past the interval's budget
  /// saturates at blocks_per_interval (so a caller holding a stale
  /// allowance from before an idle gap cannot bank a catch-up burst).
  void consume(double now_us, std::uint64_t blocks);

 private:
  std::int64_t interval_of(double now_us) const;

  RepublishConfig cfg_;
  std::int64_t interval_ = -1;  ///< Interval index last consumed in.
  std::uint64_t used_ = 0;      ///< Blocks consumed in that interval.
};

}  // namespace bandana
