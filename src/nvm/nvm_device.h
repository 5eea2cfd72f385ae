// Discrete-event timing simulator for an NVM block device.
//
// Two drivers, matching the paper's two device experiments:
//  * run_closed_loop — `queue_depth` logical clients, each re-issuing a read
//    the moment its previous one completes (Fio with iodepth=q). Regenerates
//    Fig. 2 (latency & bandwidth vs queue depth).
//  * run_open_loop — Poisson arrivals at a configured rate. Regenerates
//    Fig. 5 (latency vs application throughput; the hockey-stick as offered
//    load approaches device bandwidth).
//
// Both drivers run on the event-driven per-channel NvmIoEngine
// (nvm/io_engine.h): closed loop re-submits on each completion event, open
// loop paces arrivals from a seed-derived stream. The pre-engine single
// dispatch-queue model is a test oracle (tests/legacy_device_model.h): with
// channels = 1 the engine reproduces it bit-for-bit.
//
// The device is `channels` parallel service units; per-IO service times
// are lognormal (nvm_config.h).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "common/stats.h"
#include "nvm/nvm_config.h"

namespace bandana {

/// Draws per-IO service times. Separated from the device so tests can pin it.
class NvmLatencyModel {
 public:
  explicit NvmLatencyModel(const NvmDeviceConfig& cfg)
      : cfg_(cfg),
        log_service_median_(std::log(cfg.service_median_us)),
        log_write_service_median_(std::log(cfg.write_service_median_us)) {}

  /// One 4 KB read's channel-service time, microseconds.
  double sample_service_us(Rng& rng) const {
    return rng.next_lognormal(log_service_median_, cfg_.service_sigma);
  }

  /// One 4 KB write's channel-service time, microseconds. Drawn from its
  /// own stream so interleaved writes never perturb the read draws.
  double sample_write_service_us(Rng& rng) const {
    return rng.next_lognormal(log_write_service_median_,
                              cfg_.write_service_sigma);
  }

  double base_latency_us() const { return cfg_.base_latency_us; }

 private:
  NvmDeviceConfig cfg_;
  double log_service_median_;        ///< The lognormal mu of a read.
  double log_write_service_median_;  ///< The lognormal mu of a write.
};

struct DeviceRunResult {
  LatencyRecorder latency_us;   ///< Per-IO end-to-end latency.
  std::uint64_t ios = 0;        ///< Completed reads.
  double elapsed_us = 0.0;      ///< Simulated wall time.

  double bandwidth_bytes_per_s(std::size_t block_bytes) const {
    if (elapsed_us <= 0.0) return 0.0;
    return static_cast<double>(ios) * static_cast<double>(block_bytes) /
           (elapsed_us * 1e-6);
  }
  double iops() const {
    return elapsed_us > 0.0 ? static_cast<double>(ios) / (elapsed_us * 1e-6)
                            : 0.0;
  }
};

/// Fixed number of outstanding IOs; each completion immediately triggers the
/// next submission from that client.
DeviceRunResult run_closed_loop(const NvmDeviceConfig& cfg,
                                unsigned queue_depth, std::uint64_t num_ios,
                                std::uint64_t seed);

/// Poisson arrivals of block reads at `arrivals_per_s`. If the offered load
/// exceeds device bandwidth the dispatch queue grows and latency diverges,
/// exactly the overload behaviour Fig. 5 shows.
DeviceRunResult run_open_loop(const NvmDeviceConfig& cfg,
                              double arrivals_per_s, std::uint64_t num_ios,
                              std::uint64_t seed);

}  // namespace bandana
