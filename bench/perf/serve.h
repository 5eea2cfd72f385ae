// The serving loops bench_perf times: a paced one-client loop (the
// simulated-clock metrics and per-call wall time) and a closed-loop async
// loop (wall throughput), plus the storage-layer replay of the paced
// loop's miss blocks.
#pragma once

#include <sched.h>

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <set>
#include <utility>
#include <vector>

#include "replay.h"
#include "spans.h"
#include "workload.h"

namespace perf {

/// Nominal offered load of the paced loop: 10 kreq/s.
inline constexpr double kInterarrivalUs = 100.0;

/// Requests per wall-time window of the serving loops; the wall_* metrics
/// are read over windows (Bench::repetitions).
inline constexpr std::size_t kWindowRequests = 500;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pins the calling thread to one of its allowed CPUs at a time, the next
/// one at every next(), and restores the original CPU mask when destroyed.
/// Left alone, the one-client loop stays on whichever vCPU the scheduler
/// picked, often for a whole run, and on a shared host one vCPU can run
/// tens of percent slower than the others for minutes. Taking turns puts
/// an equal share of the paced loop's windows on every CPU, so a run's
/// windows sample every CPU alike.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    // One turn order for the whole process, so every pass continues it.
    static std::size_t turn = 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn++ % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0 || pinned_;
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  bool pinned_ = false;
};

/// Everything one paced pass recorded.
struct PacedPass {
  std::vector<double> sim_us;  ///< Per request, in log order.
  std::vector<double> wall_us;
  /// Median wall time of each kWindowRequests-request window, each window
  /// served on one CPU (CpuRotation).
  std::vector<double> window_wall_us;
  std::vector<double> blocks;
  std::uint64_t lookups = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<DeviceLog> devices;
  /// Traced only: per request, per device, the blocks its lookups were
  /// about to miss on.
  std::vector<std::vector<std::vector<BlockId>>> misses;
};

/// Device logs of a freshly built tier: each device's engine inputs and
/// its publish write waves. A publish is closed loop — each table's wave
/// arrives when the previous one completed — so the waves are
/// reconstructed with a scratch engine from the per-table block counts.
inline std::vector<DeviceLog> start_logs(Tier& tier, std::uint64_t seed) {
  std::vector<DeviceLog> logs;
  for (std::uint32_t d = 0; d < tier.devices(); ++d) {
    Store& s = tier.device(d);
    DeviceLog log;
    log.device = s.config().device;
    log.seed = tier.cluster ? cluster_node_seed(seed, d) : seed;
    NvmIoEngine scratch(log.device, log.seed);
    double clock = 0.0;
    for (TableId t = 0; t < s.num_tables(); ++t) {
      const std::uint64_t blocks = s.table(t).num_blocks();
      log.waves.push_back({clock, blocks, IoKind::kWrite, -1});
      clock = scratch.submit_wave(clock, blocks, nullptr, IoKind::kWrite);
    }
    log.serve_start_us = s.now_us();
    logs.push_back(std::move(log));
  }
  return logs;
}

/// Serve `n` requests one at a time, advancing the simulated clock by
/// kInterarrivalUs before each. Requests get log indices base..base+n-1.
/// `before(i)` runs after the clock advanced and before request i
/// (retrain-drift pumps its push there). Only the multi_get call itself is timed; the byte check,
/// the traced miss-block peek and the bookkeeping run outside it. Each
/// kWindowRequests-request window runs on the next CPU in turn.
inline void serve_paced(Tier& tier,
                        const std::function<MultiGetRequest(std::size_t)>& req_of,
                        std::size_t n, std::size_t base, const Verifier& verify,
                        PacedPass& pass, SpanRecorder& spans,
                        const std::function<void(std::size_t)>& before = {}) {
  const std::uint32_t devices = tier.devices();
  std::vector<std::uint64_t> reads_before(devices, 0);
  std::vector<double> arrival(devices, 0.0);
  const char* span_name = tier.cluster ? "router.multi_get" : "store.multi_get";
  CpuRotation cpus;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = base + i;
    if (i % kWindowRequests == 0) cpus.next();
    tier.advance(kInterarrivalUs);
    if (before) before(i);
    const MultiGetRequest req = req_of(i);
    for (std::uint32_t d = 0; d < devices; ++d) {
      arrival[d] = tier.device(d).now_us();
      if (tier.cluster) {
        reads_before[d] = tier.device(d).total_metrics().nvm_block_reads;
      }
    }
    if (spans.enabled()) {
      std::vector<std::vector<BlockId>> per_device(devices);
      if (!tier.cluster) {
        std::set<BlockId> seen;
        for (const auto& get : req.gets) {
          const BandanaTable& table = tier.store->table(get.table);
          for (const VectorId v : get.ids) {
            if (!table.is_cached(v)) seen.insert(table.global_block_of(v));
          }
        }
        per_device[0].assign(seen.begin(), seen.end());
      }
      pass.misses.push_back(std::move(per_device));
    }
    std::uint64_t failed_lookups = 0;
    MultiGetResult res;
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      SpanRecorder::Scope span(spans, span_name, static_cast<std::int64_t>(j));
      res = tier.get(req, failed_lookups);
    } catch (const std::exception& e) {
      threw = true;
      std::fprintf(stderr, "request %zu failed: %s\n", j, e.what());
    }
    const double wall = std::chrono::duration<double, std::micro>(
                            Clock::now() - t0)
                            .count();
    for (std::uint32_t d = 0; d < devices; ++d) {
      const std::uint64_t reads =
          tier.cluster
              ? tier.device(d).total_metrics().nvm_block_reads - reads_before[d]
              : res.block_reads;
      if (reads > 0) {
        pass.devices[d].waves.push_back(
            {arrival[d], reads, IoKind::kRead, static_cast<std::int64_t>(j)});
      }
      if (tier.cluster && spans.enabled()) {
        // The router's replica choice is internal, so a cluster's miss
        // blocks are not peekable; the storage replay reads as many
        // blocks as the node really read, at spread-out positions.
        const std::uint64_t nb = tier.device(d).storage().num_blocks();
        auto& blocks = pass.misses.back()[d];
        for (std::uint64_t k = 0; k < reads; ++k) {
          blocks.push_back(static_cast<BlockId>(splitmix64(j * 131 + k) % nb));
        }
      }
    }
    ++pass.requests;
    if (threw || failed_lookups > 0 || verify.wrong(req, res) > 0) {
      ++pass.failed;
    }
    pass.sim_us.push_back(res.service_latency_us);
    pass.wall_us.push_back(wall);
    pass.blocks.push_back(static_cast<double>(res.block_reads));
    pass.lookups += res.lookups();
    if ((i + 1) % kWindowRequests == 0 || i + 1 == n) {
      const auto window = static_cast<std::ptrdiff_t>(i % kWindowRequests + 1);
      pass.window_wall_us.push_back(median(
          std::vector<double>(pass.wall_us.end() - window, pass.wall_us.end())));
    }
  }
}

/// Closed-loop async pass over requests [0, n) of `traces`: at most
/// `window` requests in flight on a pool of `threads`. Returns kreq/s, and
/// appends to `window_kreq` (when given) the kreq/s of every
/// kWindowRequests settled requests. Each result is byte-checked as it is
/// collected (a memcmp per vector on the collecting thread, while the pool
/// keeps serving).
inline double serve_async(Tier& tier, const std::vector<Trace>& traces,
                          std::size_t n, unsigned threads,
                          const Verifier& verify, std::uint64_t& attempted,
                          std::uint64_t& failed, SpanRecorder& spans,
                          std::vector<double>* window_kreq = nullptr) {
  ThreadPool pool(threads);
  const std::size_t window = 4 * static_cast<std::size_t>(threads);
  const char* span_name =
      tier.cluster ? "router.multi_get_async" : "store.multi_get_async";
  const auto run = [&](auto submit) {
    using Future = decltype(submit(MultiGetRequest{}));
    std::deque<std::pair<Future, double>> inflight;
    std::size_t settled = 0;
    const auto t0 = Clock::now();
    auto window_start = t0;
    const auto settle = [&] {
      auto& [future, start] = inflight.front();
      ++attempted;
      try {
        auto r = future.get();
        const MultiGetRequest req = make_request(traces, settled);
        std::uint64_t lost = 0;
        const MultiGetResult* res = nullptr;
        if constexpr (std::is_same_v<decltype(r), ClusterMultiGetResult>) {
          lost = r.failed_lookups;
          res = &r.result;
        } else {
          res = &r;
        }
        if (lost > 0 || verify.wrong(req, *res) > 0) ++failed;
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "async request %zu failed: %s\n", settled,
                     e.what());
      }
      if (spans.enabled()) {
        spans.record(span_name, static_cast<std::int64_t>(settled), start,
                     spans.now_us());
      }
      inflight.pop_front();
      ++settled;
      if (window_kreq != nullptr && settled % kWindowRequests == 0) {
        const auto now = Clock::now();
        window_kreq->push_back(
            static_cast<double>(kWindowRequests) /
            std::chrono::duration<double>(now - window_start).count() / 1e3);
        window_start = now;
      }
    };
    for (std::size_t q = 0; q < n; ++q) {
      if (inflight.size() >= window) settle();
      const double start = spans.enabled() ? spans.now_us() : 0.0;
      inflight.emplace_back(submit(make_request(traces, q)), start);
    }
    while (!inflight.empty()) settle();
    return static_cast<double>(n) / seconds_since(t0) / 1e3;
  };
  if (tier.cluster) {
    return run([&](MultiGetRequest req) {
      return tier.cluster->router().multi_get_async(std::move(req), pool);
    });
  }
  return run([&](MultiGetRequest req) {
    return tier.store->multi_get_async(std::move(req), pool);
  });
}

/// Storage-layer replay: every request's miss blocks, read back
/// through the device's BlockStorage::read_blocks in admission-sized
/// waves (queue_depth x channels blocks), the way the store stages them.
struct StorageReplay {
  std::vector<double> wave_us;
  std::uint64_t blocks = 0;
  double seconds = 0.0;
};

inline StorageReplay replay_storage(Tier& tier, const PacedPass& pass,
                                    SpanRecorder& spans) {
  StorageReplay out;
  for (std::size_t r = 0; r < pass.misses.size(); ++r) {
    for (std::uint32_t d = 0; d < tier.devices(); ++d) {
      const BlockStorage& storage = tier.device(d).storage();
      const auto& dev = tier.device(d).config().device;
      const std::size_t wave =
          std::max<std::size_t>(1, std::size_t{dev.queue_depth} * dev.channels);
      const std::size_t bb = storage.block_bytes();
      const auto& blocks = pass.misses[r][d];
      for (std::size_t w0 = 0; w0 < blocks.size(); w0 += wave) {
        const std::size_t k = std::min(wave, blocks.size() - w0);
        BlockStorage::WaveBufferLease lease = storage.lease_wave_buffer(k * bb);
        std::vector<std::byte> heap;
        std::span<std::byte> buf = lease.bytes();
        if (!lease) {
          heap.resize(k * bb);
          buf = heap;
        }
        std::vector<BlockReadOp> ops(k);
        for (std::size_t i = 0; i < k; ++i) {
          ops[i] = {blocks[w0 + i], buf.subspan(i * bb, bb)};
        }
        SpanRecorder::Scope span(spans, "storage.read_blocks",
                                 static_cast<std::int64_t>(r));
        const auto t0 = Clock::now();
        storage.read_blocks(ops);
        const double s = seconds_since(t0);
        out.wave_us.push_back(s * 1e6);
        out.seconds += s;
        out.blocks += k;
      }
    }
  }
  return out;
}

}  // namespace perf
