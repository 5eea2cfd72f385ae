// Device-model regression suite for the event-driven per-channel engine.
//
// The legacy single-dispatch-queue model (submit_read / submit_reads in
// legacy_device_model.h) is the reference: with channels = 1 the engine must
// reproduce its completion order and latencies bit-for-bit on a pinned-RNG
// trace. On top of that, per-channel FIFO ordering, admission bounds,
// cross-stream fairness and the Fig. 2 saturation shape are pinned as
// properties.
#include "nvm/io_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "legacy_device_model.h"
#include "nvm/admission.h"

namespace bandana {
namespace {

NvmDeviceConfig one_channel_config(unsigned queue_depth = 0) {
  NvmDeviceConfig cfg;
  cfg.channels = 1;
  cfg.queue_depth = queue_depth;
  return cfg;
}

// ---- Rng seeding audit: every engine stream derives from the run seed. ----

TEST(ChannelStreamSeed, ChannelZeroKeepsTheRunSeed) {
  EXPECT_EQ(channel_stream_seed(42, 0), 42u);
  EXPECT_EQ(channel_stream_seed(0xDEADBEEF, 0), 0xDEADBEEFull);
}

TEST(ChannelStreamSeed, StreamsAreDistinctAndPure) {
  std::vector<std::uint64_t> seeds;
  for (unsigned c = 0; c < 16; ++c) {
    seeds.push_back(channel_stream_seed(7, c));
    // Pure function of (run seed, channel): replayable, no global state.
    EXPECT_EQ(seeds.back(), channel_stream_seed(7, c));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(arrival_stream_seed(7), channel_stream_seed(7, 0));
}

TEST(NvmIoEngine, ReplayableFromSeedAlone) {
  const NvmDeviceConfig cfg;  // 4 channels, bounded gate
  NvmIoEngine a(cfg, 99), b(cfg, 99), c(cfg, 100);
  bool any_differs = false;
  for (int i = 0; i < 500; ++i) {
    const double arrival = 3.0 * i;
    a.submit(arrival);
    b.submit(arrival);
    c.submit(arrival);
  }
  while (auto done_a = a.next_completion()) {
    const auto done_b = b.next_completion();
    const auto done_c = c.next_completion();
    ASSERT_TRUE(done_b.has_value());
    ASSERT_TRUE(done_c.has_value());
    EXPECT_EQ(done_a->id, done_b->id);
    EXPECT_EQ(done_a->channel, done_b->channel);
    EXPECT_DOUBLE_EQ(done_a->complete_us, done_b->complete_us);
    any_differs |= done_a->complete_us != done_c->complete_us;
  }
  EXPECT_TRUE(any_differs);  // a different seed is a different device run
}

TEST(NvmIoEngine, ResetReplaysTheSameRun) {
  NvmIoEngine engine(NvmDeviceConfig{}, 5);
  std::vector<double> first;
  for (int i = 0; i < 100; ++i) engine.submit(2.0 * i);
  while (auto done = engine.next_completion()) {
    first.push_back(done->complete_us);
  }
  engine.reset();
  EXPECT_EQ(engine.submitted(), 0u);
  std::size_t i = 0;
  for (int k = 0; k < 100; ++k) engine.submit(2.0 * k);
  while (auto done = engine.next_completion()) {
    ASSERT_LT(i, first.size());
    EXPECT_DOUBLE_EQ(done->complete_us, first[i++]);
  }
  EXPECT_EQ(i, first.size());
}

// ---- channels=1 equivalence with the legacy dispatch-queue model
// (run_closed_loop_legacy, the canonical pre-engine implementation). ----

TEST(Equivalence, SingleChannelClosedLoopMatchesLegacyBitForBit) {
  // Pinned-RNG trace: both models draw the identical service sequence
  // (channel 0's stream IS the run seed's stream) in the identical order.
  // The device-config admission depth is irrelevant here — the drivers
  // are raw characterization sweeps and run the engine ungated, exactly
  // like the legacy loop.
  auto cfg = one_channel_config();
  cfg.queue_depth = 5;
  for (const unsigned qd : {1u, 2u, 4u, 8u}) {
    const auto legacy = run_closed_loop_legacy(cfg, qd, 2000, 123);
    const auto engine_run = run_closed_loop(cfg, qd, 2000, 123);
    // Engine latencies are recorded in completion order; with one channel
    // that is exactly the legacy submission order, so both recorders saw
    // the same sequence and must agree bit-for-bit on every statistic.
    const LatencyRecorder& reference = legacy.latency_us;
    ASSERT_EQ(engine_run.latency_us.count(), reference.count());
    EXPECT_DOUBLE_EQ(engine_run.latency_us.mean(), reference.mean());
    EXPECT_DOUBLE_EQ(engine_run.latency_us.max(), reference.max());
    EXPECT_DOUBLE_EQ(engine_run.latency_us.percentile(0.99),
                     reference.percentile(0.99));
    EXPECT_DOUBLE_EQ(engine_run.latency_us.percentile(0.5),
                     reference.percentile(0.5));
    EXPECT_DOUBLE_EQ(engine_run.elapsed_us, legacy.elapsed_us);
  }
}

TEST(Equivalence, SingleChannelCompletionOrderAndTimesMatchLegacy) {
  const auto cfg = one_channel_config();
  NvmLatencyModel model(cfg);
  Rng legacy_rng(321);
  std::vector<double> channel_free(cfg.channels, 0.0);
  NvmIoEngine engine(cfg, 321);

  // Pinned arrival trace (deterministic, bursty): compare every IO's
  // completion time and the delivery order, not just aggregates.
  std::vector<double> arrivals;
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    t += (i % 7 == 0) ? 0.0 : 4.5;  // occasional same-instant bursts
    arrivals.push_back(t);
  }
  std::vector<double> legacy_done;
  for (const double a : arrivals) {
    legacy_done.push_back(submit_read(model, a, channel_free, legacy_rng));
    engine.submit(a);
  }
  std::size_t i = 0;
  while (auto done = engine.next_completion()) {
    ASSERT_LT(i, legacy_done.size());
    EXPECT_EQ(done->id, i);  // FIFO: delivery order == submission order
    EXPECT_DOUBLE_EQ(done->complete_us, legacy_done[i]);
    EXPECT_DOUBLE_EQ(done->arrival_us, arrivals[i]);
    ++i;
  }
  EXPECT_EQ(i, legacy_done.size());
}

TEST(Equivalence, SingleChannelWaveMatchesLegacySubmitReads) {
  for (const unsigned depth : {0u, 1u, 3u}) {
    const auto cfg = one_channel_config(depth);
    NvmLatencyModel model(cfg);
    Rng legacy_rng(77);
    std::vector<double> channel_free(cfg.channels, 0.0);
    AdmissionController gate(cfg.channels, depth);
    NvmIoEngine engine(cfg, 77);

    // Three consecutive waves, including out-of-order wave overlap (wave 2
    // arrives before wave 1's reads have completed).
    for (const double arrival : {0.0, 30.0, 500.0}) {
      const double legacy_done = submit_reads(model, arrival, 24,
                                              channel_free, gate, legacy_rng);
      EXPECT_DOUBLE_EQ(engine.submit_wave(arrival, 24), legacy_done)
          << "depth " << depth << " wave at " << arrival;
    }
  }
}

// ---- Per-channel FIFO order and admission bounds. ----

TEST(NvmIoEngine, PerChannelCompletionsAreFifo) {
  NvmDeviceConfig cfg;
  cfg.channels = 4;
  cfg.queue_depth = 2;
  NvmIoEngine engine(cfg, 9);
  for (int i = 0; i < 400; ++i) engine.submit(1.5 * i);

  std::map<unsigned, std::vector<IoCompletion>> by_channel;
  while (auto done = engine.next_completion()) {
    by_channel[done->channel].push_back(*done);
  }
  EXPECT_EQ(by_channel.size(), 4u);
  for (auto& [channel, ios] : by_channel) {
    std::sort(ios.begin(), ios.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    for (std::size_t i = 1; i < ios.size(); ++i) {
      // FIFO service: a later-routed read never starts before, or
      // completes before, an earlier read of the same channel.
      EXPECT_GE(ios[i].start_us, ios[i - 1].start_us);
      EXPECT_GE(ios[i].complete_us, ios[i - 1].complete_us);
      // No time travel inside one IO's event timeline.
      EXPECT_GE(ios[i].submit_us, ios[i].arrival_us);
      EXPECT_GE(ios[i].start_us, ios[i].submit_us);
      EXPECT_GT(ios[i].complete_us, ios[i].start_us);
    }
  }
}

TEST(NvmIoEngine, AdmissionGateBoundsOutstandingReads) {
  NvmDeviceConfig cfg;
  cfg.channels = 2;
  cfg.queue_depth = 1;  // cap: 2 outstanding reads
  NvmIoEngine engine(cfg, 13);
  std::vector<IoCompletion> all;
  engine.submit_wave(0.0, 50, &all);
  ASSERT_EQ(all.size(), 50u);

  // A slot is held from admission release to completion; replay the event
  // timeline and check the cap (completions free slots before a release at
  // the same instant, matching the gate's <= drain).
  std::vector<std::pair<double, int>> events;
  for (const auto& io : all) {
    events.emplace_back(io.submit_us, +1);
    events.emplace_back(io.complete_us, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // -1 (free) before +1 (acquire)
            });
  int outstanding = 0, peak = 0;
  for (const auto& [time, delta] : events) {
    outstanding += delta;
    peak = std::max(peak, outstanding);
  }
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(outstanding, 0);
}

TEST(NvmIoEngine, FairnessAcrossConcurrentStreamsAtFixedQueueDepth) {
  // Four request streams submit round-robin at a rate near saturation.
  // The admission gate + per-channel FIFOs must spread the queueing delay
  // evenly: no stream's p99 may run away from the others (the
  // cross-request fairness the single global dispatch queue could not
  // express).
  NvmDeviceConfig cfg;
  cfg.channels = 4;
  cfg.queue_depth = 2;
  NvmIoEngine engine(cfg, 31);
  constexpr int kStreams = 4;
  constexpr int kPerStream = 2000;
  const double interarrival_us = cfg.mean_service_us() / cfg.channels / 0.9;
  for (int i = 0; i < kStreams * kPerStream; ++i) {
    engine.submit(interarrival_us * static_cast<double>(i / kStreams));
  }
  std::vector<LatencyRecorder> stream_latency(kStreams);
  while (auto done = engine.next_completion()) {
    stream_latency[done->id % kStreams].add(done->latency_us());
  }
  double min_p99 = 1e300, max_p99 = 0.0;
  for (const auto& rec : stream_latency) {
    EXPECT_EQ(rec.count(), static_cast<std::uint64_t>(kPerStream));
    min_p99 = std::min(min_p99, rec.percentile(0.99));
    max_p99 = std::max(max_p99, rec.percentile(0.99));
  }
  EXPECT_GT(min_p99, 0.0);
  EXPECT_LT(max_p99 / min_p99, 1.15)
      << "p99 spread across concurrent streams: " << min_p99 << " .. "
      << max_p99;
}

// ---- Fig. 2 shape: bandwidth saturates past `channels` outstanding. ----

TEST(NvmIoEngine, ClosedLoopBandwidthSaturatesPastChannels) {
  NvmDeviceConfig cfg;  // 4 channels
  const double peak = cfg.peak_bandwidth_bytes_per_s();
  const auto bw = [&](unsigned qd) {
    return run_closed_loop(cfg, qd, 30000, 17)
        .bandwidth_bytes_per_s(cfg.block_bytes);
  };
  const double bw1 = bw(1), bw4 = bw(4), bw16 = bw(16);
  EXPECT_LT(bw1, 0.45 * peak);   // one outstanding IO: channels idle
  EXPECT_GT(bw4, 1.8 * bw1);     // scales while channels fill
  EXPECT_GT(bw16, 0.90 * peak);  // saturated past `channels` outstanding
  EXPECT_LT(bw16, 1.05 * peak);
}

// ---- Write-aware channel model: writes share FIFOs and the gate, but
// never perturb the read service draws. ----

TEST(ChannelStreamSeed, WriteStreamsDisjointFromReadStreams) {
  std::vector<std::uint64_t> seeds;
  for (unsigned c = 0; c < 16; ++c) {
    seeds.push_back(channel_stream_seed(7, c));
    seeds.push_back(channel_write_stream_seed(7, c));
    // Pure function of (run seed, channel).
    EXPECT_EQ(seeds.back(), channel_write_stream_seed(7, c));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(WriteAwareEngine, ReadOnlyTrafficBitIdenticalWithWriteModelConfigured) {
  // The write model is purely additive: a read-only trace on a config with
  // a (different) write service distribution replays the legacy dispatch
  // queue bit-for-bit, exactly like the pre-write engine.
  auto cfg = one_channel_config();
  cfg.write_service_median_us = 99.0;  // any value: reads never draw it
  cfg.write_service_sigma = 1.0;
  NvmLatencyModel model(cfg);
  Rng legacy_rng(321);
  std::vector<double> channel_free(cfg.channels, 0.0);
  NvmIoEngine engine(cfg, 321);
  double t = 0.0;
  std::vector<double> legacy_done;
  for (int i = 0; i < 500; ++i) {
    t += (i % 5 == 0) ? 0.0 : 4.5;
    legacy_done.push_back(submit_read(model, t, channel_free, legacy_rng));
    engine.submit(t);
  }
  std::size_t i = 0;
  while (auto done = engine.next_completion()) {
    ASSERT_LT(i, legacy_done.size());
    EXPECT_EQ(done->kind, IoKind::kRead);
    EXPECT_DOUBLE_EQ(done->complete_us, legacy_done[i]);
    ++i;
  }
  EXPECT_EQ(i, legacy_done.size());
}

TEST(WriteAwareEngine, InterleavedWritesDelayReadsButKeepTheirServiceDraws) {
  // channels = 1, unbounded gate: interleaving writes into a read trace
  // must not change any read's media service time (writes draw from a
  // disjoint stream) — only its queueing delay, which can only grow.
  auto cfg = one_channel_config(/*queue_depth=*/0);
  NvmIoEngine reads_only(cfg, 55), mixed(cfg, 55);
  const double step = cfg.mean_service_us();  // near saturation
  for (int i = 0; i < 400; ++i) {
    const double arrival = step * i;
    reads_only.submit(arrival, IoKind::kRead);
    mixed.submit(arrival, IoKind::kRead);
    if (i % 4 == 0) mixed.submit(arrival, IoKind::kWrite);
  }
  std::vector<IoCompletion> ref, got;
  while (auto done = reads_only.next_completion()) ref.push_back(*done);
  while (auto done = mixed.next_completion()) {
    if (done->kind == IoKind::kRead) got.push_back(*done);
  }
  ASSERT_EQ(got.size(), ref.size());
  bool any_delayed = false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // Same media service draw (single channel: stream order is fixed).
    // NEAR, not DOUBLE_EQ: the draw is recovered as complete - start,
    // and the two runs compute it at different absolute clock offsets,
    // so the subtraction differs in the last ulps.
    EXPECT_NEAR(got[i].complete_us - got[i].start_us,
                ref[i].complete_us - ref[i].start_us, 1e-9);
    // Contention is one-directional: writes only ever push reads later.
    EXPECT_GE(got[i].complete_us, ref[i].complete_us);
    any_delayed |= got[i].complete_us > ref[i].complete_us;
  }
  EXPECT_TRUE(any_delayed);
}

TEST(WriteAwareEngine, PerChannelFifoHoldsAcrossKinds) {
  NvmDeviceConfig cfg;
  cfg.channels = 4;
  cfg.queue_depth = 2;
  NvmIoEngine engine(cfg, 9);
  for (int i = 0; i < 400; ++i) {
    engine.submit(1.5 * i, i % 3 == 0 ? IoKind::kWrite : IoKind::kRead);
  }
  std::map<unsigned, std::vector<IoCompletion>> by_channel;
  std::uint64_t reads = 0, writes = 0;
  while (auto done = engine.next_completion()) {
    (done->kind == IoKind::kWrite ? writes : reads) += 1;
    by_channel[done->channel].push_back(*done);
  }
  EXPECT_EQ(reads + writes, 400u);
  EXPECT_GT(writes, 0u);
  for (auto& [channel, ios] : by_channel) {
    std::sort(ios.begin(), ios.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    for (std::size_t i = 1; i < ios.size(); ++i) {
      // FIFO across kinds: a later IO never starts or completes before an
      // earlier IO of the same channel, read or write.
      EXPECT_GE(ios[i].start_us, ios[i - 1].start_us);
      EXPECT_GE(ios[i].complete_us, ios[i - 1].complete_us);
    }
  }
}

TEST(WriteAwareEngine, WritesHoldAdmissionGateSlots) {
  NvmDeviceConfig cfg;
  cfg.channels = 2;
  cfg.queue_depth = 1;  // cap: 2 outstanding IOs, reads plus writes
  NvmIoEngine engine(cfg, 13);
  std::vector<IoCompletion> all;
  for (int i = 0; i < 25; ++i) {
    engine.submit(0.0, IoKind::kRead);
    engine.submit(0.0, IoKind::kWrite);
  }
  while (auto done = engine.next_completion()) all.push_back(*done);
  ASSERT_EQ(all.size(), 50u);
  std::vector<std::pair<double, int>> events;
  for (const auto& io : all) {
    events.emplace_back(io.submit_us, +1);
    events.emplace_back(io.complete_us, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  int outstanding = 0, peak = 0;
  for (const auto& [time, delta] : events) {
    outstanding += delta;
    peak = std::max(peak, outstanding);
  }
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(outstanding, 0);
}

TEST(WriteAwareEngine, ChannelStatsSplitReadsAndWrites) {
  NvmDeviceConfig cfg;
  cfg.channels = 2;
  NvmIoEngine engine(cfg, 11);
  engine.submit_wave(0.0, 60);
  engine.submit_wave(0.0, 40, nullptr, IoKind::kWrite);
  std::uint64_t reads = 0, writes = 0;
  double write_busy = 0.0;
  for (unsigned c = 0; c < engine.channels(); ++c) {
    const auto stats = engine.channel_stats(c);
    reads += stats.ios;
    writes += stats.writes;
    write_busy += stats.write_busy_us;
  }
  EXPECT_EQ(reads, 60u);
  EXPECT_EQ(writes, 40u);
  EXPECT_GT(write_busy, 0.0);
  EXPECT_EQ(engine.submitted(), 100u);
  EXPECT_EQ(engine.completed(), 100u);
}

TEST(NvmIoEngine, WaveOnIdleEngineReturnsArrival) {
  NvmIoEngine engine(NvmDeviceConfig{}, 3);
  EXPECT_DOUBLE_EQ(engine.submit_wave(125.0, 0), 125.0);
}

TEST(NvmIoEngine, ChannelStatsAccumulate) {
  NvmDeviceConfig cfg;
  cfg.channels = 2;
  NvmIoEngine engine(cfg, 11);
  engine.submit_wave(0.0, 100);
  std::uint64_t total = 0;
  for (unsigned c = 0; c < engine.channels(); ++c) {
    const auto stats = engine.channel_stats(c);
    EXPECT_GT(stats.ios, 0u);
    EXPECT_GT(stats.busy_us, 0.0);
    total += stats.ios;
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(engine.submitted(), 100u);
  EXPECT_EQ(engine.completed(), 100u);
  EXPECT_EQ(engine.pending_completions(), 0u);
}

}  // namespace
}  // namespace bandana
