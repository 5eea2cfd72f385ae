#include "common/stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

namespace bandana {
namespace {

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(LatencyRecorder, Percentiles) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(i);
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 100.0);
  EXPECT_NEAR(r.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(r.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(r.mean(), 50.5);
}

TEST(LatencyRecorder, PercentileAfterMoreAdds) {
  LatencyRecorder r;
  r.add(10.0);
  EXPECT_DOUBLE_EQ(r.percentile(0.5), 10.0);
  r.add(20.0);
  r.add(30.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 30.0);  // cache must refresh
}

TEST(LatencyRecorder, EmptyIsZero) {
  LatencyRecorder r;
  EXPECT_DOUBLE_EQ(r.percentile(0.5), 0.0);
  EXPECT_EQ(r.count(), 0u);
}

TEST(LatencyRecorder, Clear) {
  LatencyRecorder r;
  r.add(5.0);
  r.clear();
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.percentile(0.9), 0.0);
}

// --- LatencyHistogram -------------------------------------------------------

constexpr double kLowEdge = 1.0 / 16;  // 2^-4: the first bucket's edge

TEST(LatencyHistogram, PercentilesWithinOneBucketOfExact) {
  // 20 lognormal sample sets with zeros mixed in, against the exact
  // recorder: the histogram never reports below the exact nearest rank and
  // never more than 1/32 above it (zeros: no more than the first edge).
  const double qs[] = {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};
  double worst = 0.0;
  for (std::uint64_t set = 0; set < 20; ++set) {
    std::mt19937_64 rng(set);
    std::lognormal_distribution<double> lat(1.0 + 0.3 * set, 1.2);
    LatencyRecorder exact;
    LatencyHistogram hist;
    for (int i = 0; i < 3000; ++i) {
      const double v = i % 50 == 0 ? 0.0 : lat(rng);
      exact.add(v);
      hist.add(v);
    }
    ASSERT_EQ(hist.count(), exact.count());
    EXPECT_NEAR(hist.mean(), exact.mean(), 1e-9 * exact.mean());
    EXPECT_EQ(hist.max(), exact.max());
    EXPECT_EQ(hist.min(), 0.0);
    for (const double q : qs) {
      const double want = exact.percentile(q);
      const double got = hist.percentile(q);
      EXPECT_GE(got, want) << "set " << set << " q " << q;
      if (want < kLowEdge) {
        EXPECT_LE(got, kLowEdge) << "set " << set << " q " << q;
      } else {
        EXPECT_LE(got, want * (1.0 + 1.0 / 32)) << "set " << set << " q " << q;
        worst = std::max(worst, got / want - 1.0);
      }
    }
  }
  std::printf("[histogram] worst relative percentile error %.4f\n", worst);
}

TEST(LatencyHistogram, EmptyIsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(LatencyHistogram, ZerosStayZero) {
  // Zero-length waves record 0 µs; a histogram of them reports 0.
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.add(0.0);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(h.percentile(q), 0.0);
}

TEST(LatencyHistogram, BelowRangeClampsToSamples) {
  // Underflow values share one bucket; a percentile stays inside both the
  // samples' [min, max] and that bucket.
  LatencyHistogram h;
  h.add(0.001);
  h.add(0.01);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.01);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.01);
  EXPECT_GE(h.percentile(0.0), 0.001);
  EXPECT_LE(h.percentile(0.0), 0.01);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0055);
}

TEST(LatencyHistogram, AboveRangeReportsExactMax) {
  // Past 2^28 µs samples land in the overflow bucket, which reports max.
  LatencyHistogram h;
  h.add(10.0);
  h.add(3e8);
  h.add(1e9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e9);
  EXPECT_GE(h.percentile(0.0), 10.0);
  EXPECT_LE(h.percentile(0.0), 10.0 * (1.0 + 1.0 / 32));
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 + 3e8 + 1e9) / 3);
}

TEST(LatencyHistogram, QuantileEnds) {
  // q = 1 is the top sample's bucket clamped to max: exact. q = 0 is the
  // upper edge of min's bucket: within 1/32 above min.
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0 + 1.0 / 32);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(LatencyHistogram, EqualityIsWholeState) {
  LatencyHistogram a, b;
  for (double v : {0.0, 1.5, 20.0, 400.0}) {
    a.add(v);
    b.add(v);
  }
  EXPECT_TRUE(a == b);
  b.add(1.5);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace bandana
