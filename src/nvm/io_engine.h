// Event-driven per-channel NVM I/O engine.
//
// The legacy model (tests/legacy_device_model.h) fed all `channels` service
// units from one global dispatch queue: a read always landed on the
// earliest-free channel and drew its service time from one shared stream.
// That shape cannot express per-channel queueing — the structure behind the
// paper's device characterization (§2.2, Fig. 2) and its overload behavior
// (Fig. 5) — and it let one oversized request monopolize every channel.
//
// NvmIoEngine restructures the device as explicit submit/complete events
// over per-channel FIFO queues:
//
//   submit(arrival)  — the read passes the AdmissionController at the
//                      submission boundary (at most queue_depth x channels
//                      outstanding; a read past the cap waits for the
//                      earliest completion and takes its slot), then joins
//                      the FIFO of the channel whose queue drains first.
//   complete event   — delivered in simulated-time order via
//                      next_completion(); closed-loop drivers re-submit on
//                      each completion, open-loop drivers pace arrivals.
//
// Every IoCompletion records the full event timeline (arrival, admission
// release, channel service start, completion), so fairness and queueing
// properties are directly observable per channel and per request stream.
//
// Equivalence with the legacy model: per-IO service times are independent
// of queue state, so routing a read at submission to the channel whose FIFO
// drains first and computing start = max(release, tail) is exactly the
// trajectory an event-at-a-time simulation of the same FIFO system produces
// (the event loop is collapsed onto the queue-tail timestamps). With
// channels = 1 the engine's single FIFO degenerates to the legacy global
// dispatch queue: identical routing, identical service stream (see
// channel_stream_seed), bit-identical completion order and latencies —
// tests/test_io_engine.cpp pins this equivalence.
//
// Writes (publish/republish/growth traffic, paper §2.2) enqueue
// IoKind::kWrite events on the SAME per-channel FIFOs and pass the SAME
// admission gate as reads — queue_depth x channels bounds reads plus
// writes outstanding — so live republish traffic inflates read tail
// latency exactly as channel contention predicts (the Fig. 5
// mixed-traffic sweep in bench_fig05). The write path is purely additive:
// writes draw service times from disjoint per-channel streams
// (channel_write_stream_seed), so a read-only trace is bit-identical with
// or without the write model, and with channels = 1 interleaved writes
// delay reads without changing any read's service draw.
//
// Determinism: all randomness derives from the run seed. Channel c draws
// read service times from an independent stream seeded by
// channel_stream_seed(seed, c); channel 0 keeps the run seed's own stream
// so a single-channel engine replays the legacy draw sequence exactly.
// Nothing on this path touches std::random_device or the wall clock, so
// every run is replayable from its seed alone.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "nvm/admission.h"
#include "nvm/nvm_config.h"
#include "nvm/nvm_device.h"

namespace bandana {

/// Seed of channel `channel`'s service-time stream for a run seeded with
/// `run_seed`. Channel 0 keeps the run seed itself (legacy-equivalence);
/// other channels get splitmix-derived independent streams. Pure function:
/// the whole engine is replayable from the run seed.
constexpr std::uint64_t channel_stream_seed(std::uint64_t run_seed,
                                            unsigned channel) {
  return channel == 0
             ? run_seed
             : splitmix64(run_seed ^
                          (0x9E3779B97F4A7C15ULL * (std::uint64_t{channel})));
}

/// Seed of the arrival-process stream (open-loop drivers), kept disjoint
/// from every channel stream.
constexpr std::uint64_t arrival_stream_seed(std::uint64_t run_seed) {
  return splitmix64(run_seed ^ 0xA5A5A5A55A5A5A5AULL);
}

/// Seed of channel `channel`'s *write* service-time stream. Disjoint from
/// every read stream (including channel 0's legacy stream), so interleaved
/// writes delay reads through the shared FIFOs without ever perturbing the
/// read service draws — read-only traffic stays bit-identical whether or
/// not the run also publishes.
constexpr std::uint64_t channel_write_stream_seed(std::uint64_t run_seed,
                                                  unsigned channel) {
  return splitmix64(channel_stream_seed(run_seed, channel) ^
                    0xC3C3C3C33C3C3C3CULL);
}

/// What an IO does to the media. Reads and writes share the per-channel
/// FIFO queues and the admission gate (queue_depth x channels bounds reads
/// PLUS writes outstanding); they differ only in which service distribution
/// and which per-channel stream they draw from.
enum class IoKind : std::uint8_t { kRead, kWrite };

/// One IO's full event timeline through the engine.
struct IoCompletion {
  std::uint64_t id = 0;      ///< Monotone submission sequence number.
  unsigned channel = 0;      ///< Service unit that executed the IO.
  IoKind kind = IoKind::kRead;
  double arrival_us = 0.0;   ///< When the IO arrived at the engine.
  double submit_us = 0.0;    ///< When the admission gate released it.
  double start_us = 0.0;     ///< When its channel began servicing it.
  double complete_us = 0.0;  ///< start + service + completion overhead.

  double latency_us() const { return complete_us - arrival_us; }
  double admission_wait_us() const { return submit_us - arrival_us; }
  double queue_wait_us() const { return start_us - submit_us; }
};

/// Per-channel service counters (cumulative since construction/reset).
struct IoChannelStats {
  std::uint64_t ios = 0;          ///< Reads serviced by this channel.
  double busy_us = 0.0;           ///< Total read media service time.
  double tail_free_us = 0;        ///< When the channel's FIFO drains.
  std::uint64_t writes = 0;       ///< Writes serviced by this channel.
  double write_busy_us = 0.0;     ///< Total write media service time.
};

class NvmIoEngine {
 public:
  NvmIoEngine(const NvmDeviceConfig& cfg, std::uint64_t seed);

  /// Submit one IO arriving at `arrival_us`: admission gate (reads and
  /// writes share the queue_depth x channels cap), then the per-channel
  /// FIFO whose tail drains first (ties go to the lowest channel index).
  /// Its completion event is queued for delivery. Returns the IO's id.
  /// Arrivals need not be monotone (concurrent request streams
  /// interleave), but determinism is per submission order. Writes draw
  /// from a disjoint per-channel stream, so the write path is purely
  /// additive to the read timeline: a read-only trace is bit-identical
  /// with or without the write model configured.
  std::uint64_t submit(double arrival_us, IoKind kind = IoKind::kRead);

  /// Deliver the earliest pending completion event (ties by submission
  /// id). Empty when every submitted IO has been delivered.
  std::optional<IoCompletion> next_completion();

  /// Submit `count` IOs of `kind` arriving together at `arrival_us` (one
  /// admission wave) and deliver every pending completion. Returns the
  /// latest completion time (`arrival_us` when the engine is idle and
  /// count is 0). The wave's IOs are delivered as they are placed, never
  /// queued as events. If `sink` is non-null it gets the wave's
  /// completions in placement order, then the events earlier submit()
  /// calls left queued, in delivery order.
  double submit_wave(double arrival_us, std::uint64_t count,
                     std::vector<IoCompletion>* sink = nullptr,
                     IoKind kind = IoKind::kRead);

  /// Forget all state and re-derive every stream from the original seed.
  void reset();

  unsigned channels() const { return static_cast<unsigned>(channels_.size()); }
  const NvmDeviceConfig& config() const { return cfg_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t submitted() const { return next_id_; }
  std::uint64_t completed() const { return delivered_; }
  /// Completion events queued but not yet delivered.
  std::size_t pending_completions() const { return pending_.size(); }
  IoChannelStats channel_stats(unsigned c) const;
  /// Channels whose FIFO drains before `t_us` (tail_free_us < t_us): how
  /// many IOs submitted now can each start before t_us on a channel of
  /// their own. Store's background-write budget asks this.
  unsigned channels_draining_before(double t_us) const;
  const AdmissionController& admission() const { return admission_; }

 private:
  struct Channel {
    double tail_free_us = 0.0;  ///< When the FIFO's last IO leaves media.
    Rng rng;        ///< Read service-time stream (seed-derived).
    Rng write_rng;  ///< Write service-time stream (disjoint, seed-derived).
    std::uint64_t ios = 0;
    double busy_us = 0.0;
    std::uint64_t writes = 0;
    double write_busy_us = 0.0;
  };

  /// The one placement step behind submit and submit_wave: admission
  /// gate, channel routing, service draw and channel accounting. Assigns
  /// the IO's id; queues nothing.
  IoCompletion place(double arrival_us, IoKind kind);

  struct LaterCompletion {
    bool operator()(const IoCompletion& a, const IoCompletion& b) const {
      if (a.complete_us != b.complete_us) return a.complete_us > b.complete_us;
      return a.id > b.id;
    }
  };

  NvmDeviceConfig cfg_;
  NvmLatencyModel model_;
  std::uint64_t seed_;
  std::vector<Channel> channels_;
  AdmissionController admission_;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
  std::priority_queue<IoCompletion, std::vector<IoCompletion>, LaterCompletion>
      pending_;
};

}  // namespace bandana
