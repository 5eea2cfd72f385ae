#include "nvm/nvm_device.h"

#include <algorithm>
#include <cmath>

#include "nvm/io_engine.h"

namespace bandana {

double NvmDeviceConfig::mean_service_us() const {
  // Lognormal mean = median * exp(sigma^2 / 2).
  return service_median_us * std::exp(service_sigma * service_sigma / 2.0);
}

double NvmDeviceConfig::mean_write_service_us() const {
  return write_service_median_us *
         std::exp(write_service_sigma * write_service_sigma / 2.0);
}

double NvmDeviceConfig::peak_bandwidth_bytes_per_s() const {
  return static_cast<double>(channels) * static_cast<double>(block_bytes) /
         (mean_service_us() * 1e-6);
}

namespace {
/// The drivers are raw fio-style characterization sweeps: `queue_depth`
/// here is the client count (or the arrival rate sets the load), and the
/// store-side admission cap must not gate them — outstanding IOs are
/// bounded by the sweep itself.
NvmDeviceConfig ungated(NvmDeviceConfig cfg) {
  cfg.queue_depth = 0;
  return cfg;
}
}  // namespace

DeviceRunResult run_closed_loop(const NvmDeviceConfig& cfg,
                                unsigned queue_depth, std::uint64_t num_ios,
                                std::uint64_t seed) {
  NvmIoEngine engine(ungated(cfg), seed);
  DeviceRunResult result;
  result.latency_us.reserve(num_ios);
  // `queue_depth` logical clients all issue at t=0; each completion event
  // triggers that client's next submission.
  std::uint64_t issued = 0;
  for (unsigned i = 0; i < queue_depth && issued < num_ios; ++i, ++issued) {
    engine.submit(0.0);
  }
  double end_time = 0.0;
  while (auto done = engine.next_completion()) {
    result.latency_us.add(done->latency_us());
    end_time = std::max(end_time, done->complete_us);
    if (issued < num_ios) {
      engine.submit(done->complete_us);
      ++issued;
    }
  }
  result.ios = num_ios;
  result.elapsed_us = end_time;
  return result;
}

DeviceRunResult run_open_loop(const NvmDeviceConfig& cfg,
                              double arrivals_per_s, std::uint64_t num_ios,
                              std::uint64_t seed) {
  NvmIoEngine engine(ungated(cfg), seed);
  // Arrivals draw from their own seed-derived stream, disjoint from every
  // channel's service stream, so each process is independently replayable.
  Rng arrival_rng(arrival_stream_seed(seed));
  const double rate_per_us = arrivals_per_s * 1e-6;

  DeviceRunResult result;
  result.latency_us.reserve(num_ios);
  double arrival = 0.0;
  for (std::uint64_t i = 0; i < num_ios; ++i) {
    arrival += arrival_rng.next_exponential(rate_per_us);
    engine.submit(arrival);
  }
  double end_time = 0.0;
  while (auto done = engine.next_completion()) {
    result.latency_us.add(done->latency_us());
    end_time = std::max(end_time, done->complete_us);
  }
  result.ios = num_ios;
  result.elapsed_us = end_time;
  return result;
}

}  // namespace bandana
