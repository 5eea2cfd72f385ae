// Configuration of the simulated NVM block device.
//
// The paper (§2.2, Fig. 2) characterizes a 375 GB first-generation Optane
// block device: ~10 us read latency at queue depth 1, saturating at
// ~2.3 GB/s with latency rising to the tens of microseconds as the queue
// deepens, and endurance of ~30 drive-writes-per-day (DWPD). We model the
// device as `channels` parallel service units with lognormally distributed
// per-4KB-read service times plus a fixed software/submission overhead.
// This reproduces the latency/bandwidth trade-off shape of Fig. 2: at low
// queue depth latency is service-bound and bandwidth scales with queue
// depth; past `channels` outstanding IOs bandwidth saturates and latency
// grows with queueing delay.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace bandana {

struct NvmDeviceConfig {
  /// Transfer unit. NVM block devices only reach full bandwidth at >= 4 KB
  /// reads (paper §1), which is the entire motivation for Bandana.
  std::size_t block_bytes = kDefaultBlockBytes;

  /// Internal parallelism: number of independent service units.
  unsigned channels = 4;

  /// Admission cap on outstanding block reads per channel (paper §2.2
  /// keeps device queue depth bounded). The store submits at most
  /// queue_depth * channels reads at once; oversized request batches are
  /// split into depth-bounded waves (nvm/admission.h). 0 = unbounded
  /// submission. Distinct from run_closed_loop's queue_depth parameter,
  /// which is the number of logical Fio clients.
  unsigned queue_depth = 32;

  /// Fixed submission/completion overhead per IO, microseconds.
  double base_latency_us = 2.8;

  /// Lognormal service time of one 4 KB read on a channel: exp(mu) is the
  /// median in microseconds, sigma the shape (controls the P99 tail).
  double service_median_us = 6.4;
  double service_sigma = 0.32;

  /// Lognormal service time of one 4 KB write on a channel. Publish and
  /// republish traffic occupies the same channel FIFOs as reads (paper
  /// §2.2: reads and retraining writes contend for the device), so live
  /// republishes inflate read tail latency — the Fig. 5 mixed-traffic
  /// interference. First-generation Optane block writes land roughly 2x
  /// the read service time with a fatter tail.
  double write_service_median_us = 12.8;
  double write_service_sigma = 0.40;

  /// Device capacity in blocks (375 GB / 4 KB by default). Only enforced by
  /// BlockStorage, not by the timing model.
  std::uint64_t capacity_blocks = 375ULL * 1000 * 1000 * 1000 / 4096;

  /// Endurance: sustainable whole-device rewrites per day (paper: ~30).
  double endurance_dwpd = 30.0;

  double mean_service_us() const;
  double mean_write_service_us() const;

  /// Saturated read bandwidth in bytes/second (all channels busy).
  double peak_bandwidth_bytes_per_s() const;
};

/// Rate limit of a trickle republish (Store::begin_trickle_republish): the
/// §2.2 retraining push is modeled as a background process that writes at
/// most `blocks_per_interval` blocks per `interval_us` of simulated time,
/// instead of dumping the whole retrained table onto the channel queues as
/// one open-loop wave. Tightening the rate trades republish duration for
/// read tail latency (bench_fig05's trickle sweep).
///
/// The limit is per table session: every TrickleRepublish carries its own
/// limiter, so a retrain that pushes N tables at once writes up to N x
/// blocks_per_interval blocks per interval, and takes as long as its
/// largest table's push (OnlineRetrainer's budget check uses that).
struct RepublishConfig {
  /// Blocks admitted per interval per table session; 0 = unlimited (the
  /// one-shot endpoint: the entire plan diff goes out as a single write
  /// wave).
  std::uint32_t blocks_per_interval = 0;

  /// Length of one rate-limit interval in simulated microseconds. Must be
  /// positive when blocks_per_interval > 0.
  double interval_us = 1000.0;
};

}  // namespace bandana
