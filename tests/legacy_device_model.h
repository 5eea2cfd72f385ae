// The pre-engine NVM timing model: one global dispatch queue feeding all
// `channels` service units, each read landing on the earliest-free channel
// and drawing its service time from one shared stream. The serving path
// runs on NvmIoEngine (nvm/io_engine.h); this model stays only as the
// reference the engine is checked against — with channels = 1 the engine
// reproduces it bit for bit (test_io_engine's Equivalence suite) — and as
// the oracle test_admission and test_nvm_device pin gate and service
// semantics on. Header-only, test code only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "nvm/admission.h"
#include "nvm/nvm_device.h"

namespace bandana {

/// Submits one read at `now_us` given per-channel free times, returns the
/// completion time. `channel_free_us` must have cfg.channels entries.
inline double submit_read(const NvmLatencyModel& model, double now_us,
                          std::vector<double>& channel_free_us, Rng& rng) {
  auto it = std::min_element(channel_free_us.begin(), channel_free_us.end());
  const double start = std::max(now_us, *it);
  // The channel is occupied for the media service time only; the fixed
  // submission/completion overhead adds end-to-end latency but overlaps
  // with other IOs (so saturated bandwidth is channels/service, Fig. 2).
  const double channel_busy_until = start + model.sample_service_us(rng);
  *it = channel_busy_until;
  return channel_busy_until + model.base_latency_us();
}

/// Submit `count` block reads arriving together at `arrival_us`, gated by
/// `admission`, onto the device channels. Returns the completion time of
/// the slowest read (== arrival_us when count is 0). With an unbounded
/// controller this reproduces the plain submit_read loop exactly.
inline double submit_reads(const NvmLatencyModel& model, double arrival_us,
                           std::uint64_t count,
                           std::vector<double>& channel_free_us,
                           AdmissionController& admission, Rng& rng) {
  double max_done = arrival_us;
  for (std::uint64_t i = 0; i < count; ++i) {
    const double submit_us = admission.admit(arrival_us);
    const double done = submit_read(model, submit_us, channel_free_us, rng);
    admission.on_submitted(done);
    max_done = std::max(max_done, done);
  }
  return max_done;
}

/// The pre-engine closed loop, verbatim: one global service stream
/// Rng(seed), a min-heap of per-client next-issue times,
/// earliest-free-channel routing, no admission gate.
inline DeviceRunResult run_closed_loop_legacy(const NvmDeviceConfig& cfg,
                                              unsigned queue_depth,
                                              std::uint64_t num_ios,
                                              std::uint64_t seed) {
  Rng rng(seed);
  NvmLatencyModel model(cfg);
  std::vector<double> channel_free(cfg.channels, 0.0);
  std::priority_queue<double, std::vector<double>, std::greater<>> clients;
  for (unsigned i = 0; i < queue_depth; ++i) clients.push(0.0);
  DeviceRunResult result;
  result.latency_us.reserve(num_ios);
  double end_time = 0.0;
  for (std::uint64_t i = 0; i < num_ios; ++i) {
    const double issue = clients.top();
    clients.pop();
    const double done = submit_read(model, issue, channel_free, rng);
    result.latency_us.add(done - issue);
    clients.push(done);
    end_time = std::max(end_time, done);
  }
  result.ios = num_ios;
  result.elapsed_us = end_time;
  return result;
}

}  // namespace bandana
