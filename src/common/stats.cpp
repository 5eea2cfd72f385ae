#include "common/stats.h"

#include <bit>
#include <cassert>

namespace bandana {

double LatencyRecorder::percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  if (sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_.size() - 1) + 0.5);
  return sorted_[std::min(rank, sorted_.size() - 1)];
}

std::size_t LatencyHistogram::bucket_of(double v) {
  // !(v >= 2^kMinExp) also sends NaN to the underflow bucket.
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;
  if (v >= std::ldexp(1.0, kMaxExp)) return kOverflow;
  // v is a positive normal double in [2^exp, 2^(exp+1)): its biased
  // exponent field gives exp, and the top kSubBits of its fraction are its
  // linear position inside that power of two.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto exp = static_cast<int>(bits >> 52) - 1023;
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
         ((bits >> (52 - kSubBits)) & (kSubBuckets - 1));
}

double LatencyHistogram::upper_edge(std::size_t b) {
  if (b == 0) return std::ldexp(1.0, kMinExp);
  const auto sub = static_cast<double>((b - 1) % kSubBuckets);
  return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets,
                    kMinExp + static_cast<int>((b - 1) / kSubBuckets));
}

void LatencyHistogram::add(double v) {
  ++counts_[bucket_of(v)];
  min_ = count_ == 0 ? v : std::min(min_, v);
  max_ = count_ == 0 ? v : std::max(max_, v);
  ++count_;
  sum_ += v;
}

double LatencyHistogram::percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const auto rank = std::min(
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1) + 0.5),
      count_ - 1);
  std::size_t b = 0;
  for (std::uint64_t seen = counts_[0]; seen <= rank; seen += counts_[++b]) {
  }
  return b == kOverflow ? max_ : std::clamp(upper_edge(b), min_, max_);
}

}  // namespace bandana
