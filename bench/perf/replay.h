// Replay of a serving run's simulated device traffic through fresh
// NvmIoEngines — the `engine` layer's measurements, and the offered-load
// search behind sim_max_kreq_s.
//
// A store's simulated clock only affects *when* its block reads are
// scheduled, never *which* blocks a request reads: the DRAM caches do not
// look at the clock. So a paced run's per-request block counts, together
// with the store's publish write waves and any trickle write waves, fully
// determine its device timeline. Replaying them through a fresh engine
// built with the store's device config and seed must reproduce the
// store's service latencies bit for bit (engine.replay_exact checks it),
// and re-stamping the arrivals at another rate predicts that rate's
// latencies without rebuilding a store for every probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "metrics.h"
#include "nvm/io_engine.h"
#include "spans.h"

namespace perf {

/// One admission wave a store submitted to its engine.
struct IoWave {
  double arrival_us = 0.0;  ///< As the store stamped it.
  std::uint64_t count = 0;
  bandana::IoKind kind = bandana::IoKind::kRead;
  /// Request the wave belongs to (reads) or is issued just before (trickle
  /// writes); -1 for set-up waves (the initial publish).
  std::int64_t request = -1;
};

/// One simulated device: the engine's construction inputs and its waves
/// in submission order.
struct DeviceLog {
  bandana::NvmDeviceConfig device;
  std::uint64_t seed = 0;
  double serve_start_us = 0.0;  ///< Clock when the first request was paced.
  std::vector<IoWave> waves;
};

/// Per-IO timeline statistics gathered by a profiling replay.
struct EngineProfile {
  std::vector<double> admission_wait_us;
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  double busy_us = 0.0;      ///< Media service time, all channels.
  double span_us = 0.0;      ///< First serving arrival to last completion.
  unsigned channels = 0;
  std::uint64_t ios = 0;
  double wall_ns = 0.0;      ///< Host time spent inside the engine.
};

/// Replay `logs` and return each request's latency (max over devices of
/// its read wave's completion minus arrival; 0 when it read nothing).
/// `interarrival_us` > 0 re-stamps request-tied waves at
/// serve_start + (request + 1) * interarrival_us; 0 keeps the recorded
/// arrivals (the exactness check). With `profile`, every IO is submitted
/// and delivered one event at a time and its timeline is recorded.
inline std::vector<double> replay(const std::vector<DeviceLog>& logs,
                                  std::size_t requests, double interarrival_us,
                                  EngineProfile* profile = nullptr,
                                  SpanRecorder* spans = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> latency(requests, 0.0);
  for (const DeviceLog& log : logs) {
    bandana::NvmIoEngine engine(log.device, log.seed);
    const double base_us = log.device.base_latency_us;
    double first_arrival = -1.0;
    double last_done = 0.0;
    for (const IoWave& w : log.waves) {
      const double arrival =
          interarrival_us > 0.0 && w.request >= 0
              ? log.serve_start_us +
                    static_cast<double>(w.request + 1) * interarrival_us
              : w.arrival_us;
      double done = arrival;
      if (profile == nullptr) {
        done = engine.submit_wave(arrival, w.count, nullptr, w.kind);
      } else {
        SpanRecorder::Scope span(*spans, "engine.submit_wave", w.request);
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < w.count; ++i) engine.submit(arrival, w.kind);
        while (const auto c = engine.next_completion()) {
          done = std::max(done, c->complete_us);
          if (w.request < 0 || c->kind != bandana::IoKind::kRead) continue;
          profile->admission_wait_us.push_back(c->admission_wait_us());
          profile->queue_wait_us.push_back(c->queue_wait_us());
          profile->service_us.push_back(c->complete_us - c->start_us - base_us);
        }
        profile->wall_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        profile->ios += w.count;
        if (w.request >= 0) {
          if (first_arrival < 0.0) first_arrival = arrival;
          last_done = std::max(last_done, done);
        }
      }
      if (w.kind == bandana::IoKind::kRead && w.request >= 0) {
        double& lat = latency[static_cast<std::size_t>(w.request)];
        lat = std::max(lat, done - arrival);
      }
    }
    if (profile != nullptr) {
      for (unsigned c = 0; c < engine.channels(); ++c) {
        const bandana::IoChannelStats st = engine.channel_stats(c);
        profile->busy_us += st.busy_us + st.write_busy_us;
      }
      profile->channels += engine.channels();
      profile->span_us += std::max(0.0, last_done - first_arrival);
    }
  }
  return latency;
}

/// The latency limit the offered-load search holds p99 to.
inline constexpr double kP99LimitUs = 250.0;

/// True when the run meets the limit at `kreq_s`: p99 over all requests
/// AND over the last quarter stays within kP99LimitUs — the second
/// condition rejects a rate whose backlog is still growing at the end.
inline bool meets_limit(const std::vector<DeviceLog>& logs, std::size_t requests,
                        double kreq_s) {
  const std::vector<double> lat = replay(logs, requests, 1e3 / kreq_s);
  const std::vector<double> last(lat.begin() + static_cast<long>(requests * 3 / 4),
                                 lat.end());
  return percentile(lat, 0.99) <= kP99LimitUs &&
         percentile(last, 0.99) <= kP99LimitUs;
}

/// Highest offered rate (kreq/s, to 0.1) that meets the limit: double
/// from 10 kreq/s until a rate fails, then bisect.
inline double max_rate_kreq_s(const std::vector<DeviceLog>& logs,
                              std::size_t requests) {
  double lo = 0.0;
  double hi = 10.0;
  while (meets_limit(logs, requests, hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e6) return lo;  // the device never binds (no reads at all)
  }
  while (hi - lo > 0.1) {
    const double mid = 0.5 * (lo + hi);
    (meets_limit(logs, requests, mid) ? lo : hi) = mid;
  }
  return lo;
}

/// First-principles p50 prediction (MLSYSIM-style) for a paced run: a
/// request's b reads spread over the channels, so its last channel serves
/// ceil(b / channels) reads back to back (mean service each) plus the
/// fixed completion overhead; earlier requests' backlog adds an M/D/1
/// queueing term at utilization rho = rate * E[b] * service / channels.
inline double predicted_p50_us(const bandana::NvmDeviceConfig& device,
                               unsigned channels,
                               const std::vector<double>& blocks_per_req,
                               double kreq_s) {
  const double b50 = median(blocks_per_req);
  if (b50 <= 0.0) return 0.0;
  double mean_b = 0.0;
  for (const double b : blocks_per_req) mean_b += b;
  mean_b /= static_cast<double>(blocks_per_req.size());
  const double s = device.mean_service_us();
  const double c = static_cast<double>(channels);
  const double rho = kreq_s * 1e-3 * mean_b * s / c;
  const double batch_us = std::ceil(mean_b / c) * s;
  const double wq = rho < 1.0 ? rho * batch_us / (2.0 * (1.0 - rho)) : 1e9;
  return device.base_latency_us + std::ceil(b50 / c) * s + wq;
}

}  // namespace perf
