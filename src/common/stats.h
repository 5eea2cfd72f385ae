// Streaming statistics and latency percentile recording.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bandana {

/// Welford running mean/variance. O(1) memory.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }
  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Records samples (e.g. per-IO latencies in ns) and answers percentile
/// queries. Stores raw samples: for finite runs (a device run, a figure
/// sweep) of at most a few million IOs, exact percentiles are affordable
/// and simplest. Recorders that live as long as a store use
/// LatencyHistogram instead.
class LatencyRecorder {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double v) {
    samples_.push_back(v);
    stats_.add(v);
  }
  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double max() const { return stats_.max(); }

  /// q in [0,1]; e.g. 0.99 for P99. Exact (nearest-rank on sorted copy,
  /// cached until the next add()).
  double percentile(double q) const;

  void clear() {
    samples_.clear();
    sorted_.clear();
    stats_ = RunningStats{};
  }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  RunningStats stats_;
};

/// Fixed-size log-linear latency histogram (HdrHistogram style) for
/// recorders that live as long as a store: constant memory, and a copy is
/// one flat memcpy. Each power of two from 2^-4 to 2^28 µs has 32 equal
/// sub-buckets, so no bucket is wider than 1/32 of its lower edge; smaller
/// values (zero-length waves, say) share an underflow bucket, larger ones
/// an overflow bucket. count, mean, min and max are exact.
class LatencyHistogram {
 public:
  void add(double v);
  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return min_; }
  double max() const { return max_; }
  /// q in [0,1]; 0 when empty. LatencyRecorder's nearest rank, reported as
  /// the upper edge of its bucket clamped to [min, max] (max for overflow):
  /// inside the range, at most 1/32 above the exact value.
  double percentile(double q) const;

  bool operator==(const LatencyHistogram&) const = default;

 private:
  static constexpr int kMinExp = -4;
  static constexpr int kMaxExp = 28;
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Bucket 0 is the underflow bucket, the last the overflow bucket.
  static constexpr std::size_t kOverflow =
      (kMaxExp - kMinExp) * kSubBuckets + 1;
  static std::size_t bucket_of(double v);
  static double upper_edge(std::size_t b);  ///< Below the overflow bucket.

  std::array<std::uint64_t, kOverflow + 1> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bandana
