#include "nvm/nvm_device.h"

#include <gtest/gtest.h>

#include "legacy_device_model.h"

namespace bandana {
namespace {

NvmDeviceConfig test_config() {
  NvmDeviceConfig cfg;
  return cfg;
}

TEST(NvmConfig, PeakBandwidthMatchesChannels) {
  NvmDeviceConfig cfg;
  cfg.channels = 4;
  cfg.service_median_us = 8.0;
  cfg.service_sigma = 0.0;  // deterministic
  EXPECT_NEAR(cfg.mean_service_us(), 8.0, 1e-9);
  EXPECT_NEAR(cfg.peak_bandwidth_bytes_per_s(), 4.0 * 4096 / 8e-6, 1.0);
}

TEST(SubmitRead, UsesEarliestChannel) {
  NvmDeviceConfig cfg;
  cfg.base_latency_us = 1.0;
  cfg.service_median_us = 10.0;
  cfg.service_sigma = 0.0;
  NvmLatencyModel model(cfg);
  Rng rng(1);
  std::vector<double> channels{5.0, 0.0};
  // now = 0; earliest channel free at 0 -> done at 11.
  EXPECT_NEAR(submit_read(model, 0.0, channels, rng), 11.0, 1e-9);
  // That channel is now busy until 11; next read waits on channel at 5.
  EXPECT_NEAR(submit_read(model, 0.0, channels, rng), 16.0, 1e-9);
}

TEST(ClosedLoop, LatencyGrowsWithQueueDepth) {
  const auto cfg = test_config();
  const auto qd1 = run_closed_loop(cfg, 1, 20000, 7);
  const auto qd8 = run_closed_loop(cfg, 8, 20000, 7);
  EXPECT_GT(qd8.latency_us.mean(), qd1.latency_us.mean());
  EXPECT_GT(qd8.latency_us.percentile(0.99), qd1.latency_us.percentile(0.99));
}

TEST(ClosedLoop, BandwidthGrowsThenSaturates) {
  const auto cfg = test_config();
  const double bw1 =
      run_closed_loop(cfg, 1, 20000, 7).bandwidth_bytes_per_s(cfg.block_bytes);
  const double bw4 =
      run_closed_loop(cfg, 4, 20000, 7).bandwidth_bytes_per_s(cfg.block_bytes);
  const double bw8 =
      run_closed_loop(cfg, 8, 20000, 7).bandwidth_bytes_per_s(cfg.block_bytes);
  EXPECT_GT(bw4, 1.8 * bw1);  // scales while channels are idle
  EXPECT_GT(bw8, bw4 * 0.95);
  EXPECT_LT(bw8, cfg.peak_bandwidth_bytes_per_s() * 1.05);  // saturates
}

TEST(ClosedLoop, ClientCountIsNotCappedByDeviceAdmissionDepth) {
  // run_closed_loop's queue_depth is the fio client count; the store-side
  // admission cap (NvmDeviceConfig::queue_depth) must not gate the raw
  // characterization sweep.
  NvmDeviceConfig cfg;    // 4 channels
  cfg.queue_depth = 1;    // a store would cap at 4 outstanding reads
  const auto r = run_closed_loop(cfg, 16, 20000, 7);
  EXPECT_GT(r.bandwidth_bytes_per_s(cfg.block_bytes),
            0.9 * cfg.peak_bandwidth_bytes_per_s());
}

TEST(ClosedLoop, QD1LatencyIsServicePlusBase) {
  NvmDeviceConfig cfg;
  cfg.service_sigma = 0.0;
  const auto r = run_closed_loop(cfg, 1, 1000, 3);
  EXPECT_NEAR(r.latency_us.mean(), cfg.base_latency_us + cfg.service_median_us,
              1e-6);
}

TEST(OpenLoop, LowLoadLatencyNearService) {
  const auto cfg = test_config();
  // 1% of peak bandwidth: essentially no queueing.
  const double rate = 0.01 * cfg.peak_bandwidth_bytes_per_s() / cfg.block_bytes;
  const auto r = run_open_loop(cfg, rate, 20000, 5);
  EXPECT_LT(r.latency_us.mean(),
            1.5 * (cfg.mean_service_us() + cfg.base_latency_us));
}

TEST(OpenLoop, OverloadLatencyDiverges) {
  const auto cfg = test_config();
  const double peak_iops = cfg.peak_bandwidth_bytes_per_s() / cfg.block_bytes;
  const auto ok = run_open_loop(cfg, 0.7 * peak_iops, 30000, 5);
  const auto over = run_open_loop(cfg, 1.3 * peak_iops, 30000, 5);
  EXPECT_GT(over.latency_us.mean(), 10.0 * ok.latency_us.mean());
}

// ---- Fig. 5 hockey-stick shape properties on the per-channel engine
// (guards the shape, not exact numbers). ----

TEST(OpenLoop, MeanLatencyNonDecreasingInArrivalRate) {
  const auto cfg = test_config();
  const double peak_iops = cfg.peak_bandwidth_bytes_per_s() / cfg.block_bytes;
  double previous = 0.0;
  for (const double util : {0.2, 0.4, 0.6, 0.8, 0.95, 1.1, 1.4}) {
    const auto r = run_open_loop(cfg, util * peak_iops, 30000, 5);
    // Same seed per point; 2% slack absorbs sampling noise in the flat
    // low-load region where queueing is negligible.
    EXPECT_GE(r.latency_us.mean(), 0.98 * previous) << "util " << util;
    previous = r.latency_us.mean();
  }
}

TEST(OpenLoop, LatencyDivergesPastPeakBandwidthButNotBelowIt) {
  const auto cfg = test_config();
  const double peak_iops = cfg.peak_bandwidth_bytes_per_s() / cfg.block_bytes;
  // Past the knee the queue grows without bound, so the mean scales with
  // the run length; below the knee it is run-length independent.
  const auto over_short = run_open_loop(cfg, 1.2 * peak_iops, 20000, 5);
  const auto over_long = run_open_loop(cfg, 1.2 * peak_iops, 60000, 5);
  EXPECT_GT(over_long.latency_us.mean(), 2.0 * over_short.latency_us.mean());
  const auto ok_short = run_open_loop(cfg, 0.8 * peak_iops, 20000, 5);
  const auto ok_long = run_open_loop(cfg, 0.8 * peak_iops, 60000, 5);
  EXPECT_LT(ok_long.latency_us.mean(), 2.0 * ok_short.latency_us.mean());
}

TEST(DeviceRunResult, BandwidthComputation) {
  DeviceRunResult r;
  r.ios = 1000;
  r.elapsed_us = 1e6;  // 1 second
  EXPECT_NEAR(r.bandwidth_bytes_per_s(4096), 4096000.0, 1.0);
  EXPECT_NEAR(r.iops(), 1000.0, 1e-9);
}

}  // namespace
}  // namespace bandana
