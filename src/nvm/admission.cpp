#include "nvm/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bandana {

TrickleRateLimiter::TrickleRateLimiter(const RepublishConfig& cfg)
    : cfg_(cfg) {
  if (cfg_.blocks_per_interval > 0 && !(cfg_.interval_us > 0.0)) {
    throw std::invalid_argument(
        "TrickleRateLimiter: interval_us must be positive when "
        "blocks_per_interval > 0");
  }
}

std::int64_t TrickleRateLimiter::interval_of(double now_us) const {
  return static_cast<std::int64_t>(std::floor(now_us / cfg_.interval_us));
}

std::uint64_t TrickleRateLimiter::allowance(double now_us) const {
  if (unlimited()) return std::numeric_limits<std::uint64_t>::max();
  if (interval_of(now_us) != interval_) return cfg_.blocks_per_interval;
  return cfg_.blocks_per_interval - used_;
}

void TrickleRateLimiter::consume(double now_us, std::uint64_t blocks) {
  if (unlimited()) return;
  const std::int64_t interval = interval_of(now_us);
  if (interval != interval_) {
    interval_ = interval;
    used_ = 0;
  }
  // Saturate rather than trust the caller: a pump that sized its wave from
  // a stale allowance (e.g. across a many-interval idle gap) must not carry
  // the excess into this interval as a catch-up burst. The interval absorbs
  // at most blocks_per_interval no matter what was handed in.
  used_ += std::min(blocks, cfg_.blocks_per_interval - used_);
}

}  // namespace bandana
