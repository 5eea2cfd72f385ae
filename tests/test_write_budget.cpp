// The store-wide background write budget (Store::begin_trickle_republish).
//
// Every rate-limited trickle session of a store draws on one device-time
// budget: a wave may put a block only on a channel whose FIFO drains
// before now + the device's mean write service, or, when nothing was
// granted for a whole limiter interval, one block (the progress floor);
// and a rate-limited push swaps its mapping only once the simulated clock
// reaches its last wave's completion. These tests pin:
//  (a) the read bound: 8 tables pushed at once at a per-session rate far
//      above the device's write capacity keep every paced request within
//      the documented bound of a read-only twin with the same seed, and
//      every served byte is right;
//  (b) the completion gate, and that timing off and unlimited sessions
//      swap as they always did;
//  (c) the atomic grant: four threads pumping four sessions against a
//      frozen clock write exactly as many blocks as one thread does;
//  (d) the one-shot Store::republish still swaps in its one pump;
//  (e) the progress floor: under reads that keep every channel busy past
//      the horizon, a push still writes a block every interval and swaps;
//  (f) trickle_push_budget_us against measured pushes.
// The suite is in the `retraining`, `concurrency` and `device-model` ctest
// labels and must be TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/retrainer.h"
#include "core/store.h"
#include "core/store_builder.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 4096;  // 128 blocks of 32 vectors
constexpr std::uint32_t kVpb = 32;
constexpr std::size_t kVecBytes = 128;

/// Vector v of table `t`: v + t * 1e4, offset by `changed_offset` for the
/// vectors at or past `changed_from` (so a push rewrites exactly their
/// blocks under the identity layout).
EmbeddingTable table_values(std::uint32_t t, float changed_offset = 0.0f,
                            VectorId changed_from = 0) {
  EmbeddingTable values(kVectors, 32);
  for (VectorId v = 0; v < kVectors; ++v) {
    auto row = values.vector(v);
    const float base = static_cast<float>(v) + 1.0e4f * static_cast<float>(t) +
                       (v >= changed_from ? changed_offset : 0.0f);
    for (std::uint16_t d = 0; d < 32; ++d) {
      row[d] = base + 0.25f * static_cast<float>(d);
    }
  }
  return values;
}

bool equals_value(const EmbeddingTable& values, VectorId v,
                  std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// The read bound Store::grant_background_writes documents: with the
/// budget, a request's simulated latency exceeds its read-only twin's by at
/// most one horizon (the mean write service) plus one write service, taken
/// at the write distribution's 99.9th percentile (median x e^(3.09 sigma)).
double read_excess_bound_us(const NvmDeviceConfig& device) {
  return device.mean_write_service_us() +
         device.write_service_median_us *
             std::exp(3.09 * device.write_service_sigma);
}

TablePlan identity_plan(std::uint64_t cache_vectors) {
  TablePolicy policy;
  policy.cache_vectors = cache_vectors;
  policy.policy = PrefetchPolicy::kNone;
  return TablePlan{BlockLayout::identity(kVectors, kVpb), {}, policy, 0.0};
}

/// The initial values of `tables` tables (table_values(t) each).
std::vector<EmbeddingTable> initial_values(std::size_t tables) {
  std::vector<EmbeddingTable> values;
  for (std::size_t t = 0; t < tables; ++t) {
    values.push_back(table_values(static_cast<std::uint32_t>(t)));
  }
  return values;
}

/// One identity-layout table per entry of `values`, default seed. The
/// builder reads `values` at build(), so they outlive this call.
Store build_store(const std::vector<EmbeddingTable>& values, bool timing,
                  BlockStorageFactory factory = nullptr) {
  StoreConfig cfg;
  cfg.simulate_timing = timing;
  cfg.cache_shards = 1;
  StoreBuilder builder(cfg);
  if (factory) builder.storage(std::move(factory));
  for (const EmbeddingTable& v : values) {
    builder.add_table(v, identity_plan(256));
  }
  return builder.build();
}

/// One paced request: `ids_per_table` lookups in each of `tables` tables,
/// drawn from the lower half of the table, which the pushes here leave
/// alone.
MultiGetRequest lower_half_request(Rng& rng, std::size_t tables,
                                   std::size_t ids_per_table) {
  MultiGetRequest req;
  for (TableId t = 0; t < tables; ++t) {
    std::vector<VectorId> ids(ids_per_table);
    for (auto& v : ids) {
      v = static_cast<VectorId>(rng.next_below(kVectors / 2));
    }
    req.add(t, std::move(ids));
  }
  return req;
}

/// True once every session in `sessions` has swapped.
bool all_done(const std::vector<TrickleRepublish>& sessions) {
  return std::all_of(sessions.begin(), sessions.end(),
                     [](const TrickleRepublish& s) { return s.done(); });
}

std::vector<std::uint64_t> session_blocks(
    const std::vector<TrickleRepublish>& sessions) {
  std::vector<std::uint64_t> blocks;
  for (const auto& s : sessions) blocks.push_back(s.total_blocks());
  return blocks;
}

TEST(WriteBudget, PushOfEightTablesKeepsEveryRequestWithinTheBound) {
  // The benchmark's retrain shape: one session per table, 256 blocks per
  // 100 us each — 8 sessions offer ~70x the device's whole write
  // capacity. Each push rewrites the upper half of its table (64 blocks);
  // requests read only the lower half, so the cache sees the same
  // accesses as the read-only twin and only the device's channels differ.
  constexpr std::size_t kTables = 8;
  constexpr std::size_t kRequests = 600;
  constexpr std::size_t kPushAt = 100;
  constexpr double kInterarrivalUs = 100.0;
  constexpr VectorId kChangedFrom = kVectors / 2;
  const std::vector<EmbeddingTable> initial = initial_values(kTables);
  Store mixed = build_store(initial, /*timing=*/true);
  Store twin = build_store(initial, /*timing=*/true);
  std::vector<EmbeddingTable> pushed;
  for (std::uint32_t t = 0; t < kTables; ++t) {
    pushed.push_back(table_values(t, 1.0e6f, kChangedFrom));
  }

  const RepublishConfig rate{256, 100.0};
  Rng rng(7);
  std::vector<TrickleRepublish> sessions;
  std::size_t pumps = 0;
  double worst_excess = 0.0;
  double push_start_us = 0.0;
  double push_us = -1.0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const MultiGetRequest req = lower_half_request(rng, kTables, 4);
    if (i == kPushAt) {
      push_start_us = mixed.now_us();
      for (TableId t = 0; t < kTables; ++t) {
        sessions.push_back(mixed.begin_trickle_republish(
            t, pushed[t], identity_plan(256), rate));
        ASSERT_EQ(sessions.back().total_blocks(), 64u);
      }
    }
    for (auto& s : sessions) {
      s.pump();
      ++pumps;
    }
    if (push_us < 0.0 && !sessions.empty() && all_done(sessions)) {
      push_us = mixed.now_us() - push_start_us;
    }
    const MultiGetResult got = mixed.multi_get(req);
    const MultiGetResult want = twin.multi_get(req);
    ASSERT_EQ(got.vectors, want.vectors) << "request " << i;
    for (std::size_t g = 0; g < req.gets.size(); ++g) {
      const auto& ids = req.gets[g].ids;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ASSERT_TRUE(equals_value(
            pushed[g], ids[k],
            {got.vectors[g].data() + k * kVecBytes, kVecBytes}))
            << "request " << i << " table " << g << " id " << ids[k];
      }
    }
    ASSERT_EQ(got.block_reads, want.block_reads) << "request " << i;
    const double excess = got.service_latency_us - want.service_latency_us;
    worst_excess = std::max(worst_excess, excess);
    EXPECT_LE(excess, read_excess_bound_us(mixed.config().device))
        << "request " << i;
    mixed.advance_time_us(kInterarrivalUs);
    twin.advance_time_us(kInterarrivalUs);
  }
  std::printf("[budget] worst request excess over the read-only twin: %.1f us "
              "(bound %.1f us)\n",
              worst_excess, read_excess_bound_us(mixed.config().device));

  // (f) The estimate assumes one round of pumps per interval, about one
  // block per channel per round. Here the 8 sessions' rounds grant a few
  // more (a short write leaves its channel draining within the horizon,
  // so the next session's grant counts it again) and the reads take a few
  // channels: the push lands at 0.69x the estimate, within half of it.
  const double estimate_us = trickle_push_budget_us(
      session_blocks(sessions), rate, mixed.config().device);
  std::printf("[budget] 8-table push: %.0f us measured, %.0f us estimated\n",
              push_us, estimate_us);
  ASSERT_GT(push_us, 0.0);
  EXPECT_GT(push_us, estimate_us * 0.5);
  EXPECT_LT(push_us, estimate_us * 1.5);

  // Every push landed inside the run, and the budget did the pacing.
  for (const auto& s : sessions) {
    EXPECT_TRUE(s.done());
    EXPECT_EQ(s.written_blocks(), 64u);
  }
  const StoreMetrics m = mixed.store_metrics();
  EXPECT_EQ(m.mapping_swaps, kTables);
  EXPECT_GT(m.write_budget_waits, 0u);
  EXPECT_LE(m.write_budget_waits, pumps);
  EXPECT_EQ(twin.store_metrics().write_budget_waits, 0u);
  // The pushed halves serve their new bytes.
  std::vector<VectorId> ids(kVectors);
  std::iota(ids.begin(), ids.end(), VectorId{0});
  std::vector<std::byte> out(std::size_t{kVectors} * kVecBytes);
  for (TableId t = 0; t < kTables; ++t) {
    mixed.lookup_batch(t, ids, out);
    for (const VectorId v : ids) {
      ASSERT_TRUE(equals_value(pushed[t], v,
                               {out.data() + v * kVecBytes, kVecBytes}))
          << "table " << t << " vector " << v;
    }
  }
}

TEST(WriteBudget, RateLimitedSwapWaitsForTheLastWaveToComplete) {
  const std::vector<EmbeddingTable> initial = initial_values(1);
  const EmbeddingTable pushed = table_values(0, 1.0e6f);
  Store store = build_store(initial, /*timing=*/true);
  TrickleRepublish session = store.begin_trickle_republish(
      0, pushed, identity_plan(256), RepublishConfig{16, 100.0});
  ASSERT_EQ(session.total_blocks(), 128u);
  while (session.written_blocks() < session.total_blocks()) {
    if (session.pump() == 0) store.advance_time_us(100.0);
  }
  // Every block is written, but the device has not completed the last
  // wave: the old mapping keeps serving until the clock reaches it.
  const double done_at = session.waves_done_us();
  ASSERT_GT(done_at, store.now_us());
  EXPECT_EQ(session.pump(), 0u);
  EXPECT_FALSE(session.done());
  store.advance_time_us(done_at - store.now_us() - 0.01);
  ASSERT_LT(store.now_us(), done_at);
  EXPECT_EQ(session.pump(), 0u);
  EXPECT_FALSE(session.done());
  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{7});
  EXPECT_TRUE(equals_value(initial[0], 7, store.multi_get(req).vectors[0]));
  EXPECT_EQ(store.store_metrics().mapping_swaps, 0u);

  store.advance_time_us(0.02);
  ASSERT_GE(store.now_us(), done_at);
  EXPECT_EQ(session.pump(), 0u);
  EXPECT_TRUE(session.done());
  EXPECT_EQ(store.store_metrics().mapping_swaps, 1u);
  EXPECT_TRUE(equals_value(pushed, 7, store.multi_get(req).vectors[0]));
}

TEST(WriteBudget, TimingOffAndUnlimitedSessionsSwapAtTheirLastWave) {
  const std::vector<EmbeddingTable> initial = initial_values(1);
  const EmbeddingTable pushed = table_values(0, 1.0e6f);
  {
    // Timing off: no budget, no gate — the pump that writes the last
    // block swaps, at the session's own rate.
    Store store = build_store(initial, /*timing=*/false);
    TrickleRepublish session = store.begin_trickle_republish(
        0, pushed, identity_plan(256), RepublishConfig{16, 100.0});
    std::size_t pumps = 0;
    while (!session.done()) {
      const std::size_t wrote = session.pump();
      ++pumps;
      if (session.done()) {
        EXPECT_GT(wrote, 0u);  // the last wave's own pump swapped
        break;
      }
      EXPECT_EQ(wrote, 16u);  // the whole allowance, never cut
      store.advance_time_us(100.0);
    }
    EXPECT_EQ(pumps, 8u);
    EXPECT_EQ(session.waves_done_us(), 0.0);
    EXPECT_EQ(store.store_metrics().write_budget_waits, 0u);
  }
  {
    // Unlimited, timing on: the one-shot endpoint — one pump writes every
    // block as one wave and swaps, though the device is still busy.
    Store store = build_store(initial, /*timing=*/true);
    TrickleRepublish session = store.begin_trickle_republish(
        0, pushed, identity_plan(256), RepublishConfig{});
    EXPECT_EQ(session.pump(), 128u);
    EXPECT_TRUE(session.done());
    EXPECT_GT(session.waves_done_us(), store.now_us());
    EXPECT_EQ(session.waves(), 1u);
    EXPECT_EQ(store.store_metrics().write_budget_waits, 0u);
  }
}

/// Memory storage whose write_blocks takes a while, so that concurrent
/// pumps overlap between their budget grant and their engine submission
/// unless the grant holds the budget lock across both.
class SlowWriteStorage final : public BlockStorage {
 public:
  SlowWriteStorage(std::uint64_t num_blocks, std::size_t block_bytes)
      : inner_(num_blocks, block_bytes) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_.read_block(b, out);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_.write_block(b, in);
  }
  void write_blocks(std::span<const BlockWriteOp> ops) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (const auto& op : ops) inner_.write_block(op.block, op.in);
  }

 private:
  MemoryBlockStorage inner_;
};

TEST(WriteBudget, ConcurrentPumpsNeverSpendTheSameIdleChannel) {
  // A frozen clock: the budget only shrinks as waves land on the
  // channels, so pumping until every pump returns 0 spends it exactly.
  // Four threads pumping four sessions must write exactly what one thread
  // writes from the same state — two waves granted the same idle channel
  // would write more.
  constexpr std::size_t kTables = 4;
  const std::vector<EmbeddingTable> initial = initial_values(kTables);
  std::vector<EmbeddingTable> pushed;
  for (std::uint32_t t = 0; t < kTables; ++t) {
    pushed.push_back(table_values(t, 1.0e6f));
  }
  const BlockStorageFactory slow = [](std::uint64_t n, std::size_t bb) {
    return std::make_unique<SlowWriteStorage>(n, bb);
  };
  // Per-session limits far above the budget: only the budget binds.
  const RepublishConfig loose{1000, 1.0e9};
  const auto open = [&](Store& store) {
    std::vector<TrickleRepublish> sessions;
    for (TableId t = 0; t < kTables; ++t) {
      sessions.push_back(store.begin_trickle_republish(
          t, pushed[t], identity_plan(256), loose));
    }
    return sessions;
  };
  const auto written = [](const std::vector<TrickleRepublish>& sessions) {
    std::uint64_t n = 0;
    for (const auto& s : sessions) n += s.written_blocks();
    return n;
  };

  Store serial = build_store(initial, /*timing=*/true, slow);
  std::vector<TrickleRepublish> serial_sessions = open(serial);
  for (;;) {
    std::size_t round = 0;
    for (auto& s : serial_sessions) round += s.pump();
    if (round == 0) break;
  }

  Store parallel = build_store(initial, /*timing=*/true, slow);
  std::vector<TrickleRepublish> parallel_sessions = open(parallel);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (auto& s : parallel_sessions) {
    threads.emplace_back([&ready, &s] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kTables)) {
        std::this_thread::yield();
      }
      while (s.pump() > 0) {
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(written(serial_sessions), 0u);
  EXPECT_LT(written(serial_sessions), kTables * 128u);  // the budget bound
  EXPECT_EQ(written(parallel_sessions), written(serial_sessions));
  EXPECT_EQ(parallel.endurance().total_bytes_written(),
            serial.endurance().total_bytes_written());
  EXPECT_EQ(parallel.now_us(), serial.now_us());  // the clock never moved
  for (const auto& s : parallel_sessions) EXPECT_FALSE(s.done());
}

TEST(WriteBudget, OneShotRepublishStillSwapsInOnePump) {
  const std::vector<EmbeddingTable> initial = initial_values(2);
  const EmbeddingTable pushed = table_values(1, 1.0e6f);
  Store store = build_store(initial, /*timing=*/true);
  const double now = store.now_us();
  const double latency = store.republish(1, pushed);
  EXPECT_GT(latency, 0.0);
  EXPECT_EQ(store.now_us(), now);  // open loop, and nothing waited
  const StoreMetrics m = store.store_metrics();
  EXPECT_EQ(m.mapping_swaps, 1u);
  EXPECT_EQ(m.write_budget_waits, 0u);
  EXPECT_EQ(store.trickle_epoch(), 1u);
  std::vector<std::byte> out(kVecBytes);
  store.lookup(1, 99, out);
  EXPECT_TRUE(equals_value(pushed, 99, out));
}

TEST(WriteBudget, PushUnderSaturatingReadsStillFinishes) {
  // 48, 64 and 80 lookups per 100 us request over 4 channels: reads keep
  // the channels busy past the horizon at many arrivals (at 80 the device
  // is past saturation and its backlog grows), so the rule alone grants
  // nothing there, for as long as the load lasts. The floor still writes a
  // block every limiter interval, store-wide: while blocks remain, every
  // round of pumps (one per interval) writes at least one, and each
  // session swaps at the first round whose clock reaches its last wave's
  // completion.
  constexpr std::size_t kTables = 8;
  constexpr std::size_t kWarmup = 100;
  constexpr double kInterarrivalUs = 100.0;
  const RepublishConfig rate{256, kInterarrivalUs};
  const std::vector<EmbeddingTable> initial = initial_values(kTables);
  std::vector<EmbeddingTable> pushed;
  for (std::uint32_t t = 0; t < kTables; ++t) {
    pushed.push_back(table_values(t, 1.0e6f, kVectors / 2));
  }
  for (const std::size_t ids_per_table : {6u, 8u, 10u}) {
    SCOPED_TRACE(testing::Message() << ids_per_table << " ids per table");
    Store store = build_store(initial, /*timing=*/true);
    Rng rng(7);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      store.multi_get(lower_half_request(rng, kTables, ids_per_table));
      store.advance_time_us(kInterarrivalUs);
    }
    std::vector<TrickleRepublish> sessions;
    for (TableId t = 0; t < kTables; ++t) {
      sessions.push_back(store.begin_trickle_republish(
          t, pushed[t], identity_plan(256), rate));
    }
    const std::uint64_t total = kTables * 64;
    std::uint64_t written = 0;
    std::size_t rounds = 0;
    std::size_t single_block_rounds = 0;
    while (!all_done(sessions)) {
      // Every round writes >= 1 block while any remain, so the writes end
      // within `total` rounds; the gate then waits for the backlog.
      ASSERT_LT(rounds, 20 * total) << "push never finished";
      const double now = store.now_us();
      std::vector<bool> was_done;
      std::vector<double> done_at;
      for (const auto& s : sessions) {
        was_done.push_back(s.done());
        done_at.push_back(s.waves_done_us());
      }
      const bool writing = written < total;
      std::uint64_t round = 0;
      for (auto& s : sessions) round += s.pump();
      written += round;
      if (writing) {
        ASSERT_GE(round, 1u) << "round " << rounds << " wrote nothing";
        if (round == 1) ++single_block_rounds;
      } else {
        EXPECT_EQ(round, 0u);
        for (std::size_t k = 0; k < sessions.size(); ++k) {
          if (was_done[k]) continue;
          // The gate: a session with every block written swaps exactly
          // when the clock reaches its last wave's completion.
          EXPECT_EQ(sessions[k].done(), now >= done_at[k])
              << "session " << k << " round " << rounds;
        }
      }
      store.multi_get(lower_half_request(rng, kTables, ids_per_table));
      store.advance_time_us(kInterarrivalUs);
      ++rounds;
    }
    EXPECT_EQ(written, total);
    EXPECT_EQ(store.store_metrics().mapping_swaps, kTables);
    std::printf("[budget] %zu ids/table: push of %llu blocks took %zu rounds "
                "(%zu wrote one block)\n",
                ids_per_table, static_cast<unsigned long long>(total), rounds,
                single_block_rounds);
    // The pushed halves serve their new bytes.
    std::vector<VectorId> ids(kVectors / 2);
    std::iota(ids.begin(), ids.end(), VectorId{kVectors / 2});
    std::vector<std::byte> out(ids.size() * kVecBytes);
    for (TableId t = 0; t < kTables; ++t) {
      store.lookup_batch(t, ids, out);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ASSERT_TRUE(equals_value(pushed[t], ids[k],
                                 {out.data() + k * kVecBytes, kVecBytes}))
            << "table " << t << " vector " << ids[k];
      }
    }
  }
}

TEST(WriteBudget, SingleSessionOnAnIdleDeviceTakesTheEstimate) {
  // One round of pumps per interval on an idle device: every round's
  // budget is one block per channel, so a 128-block push writes 4 blocks
  // a round for 32 rounds and swaps at the 33rd, whose clock is the
  // estimate (32 intervals) past the first.
  const std::vector<EmbeddingTable> initial = initial_values(1);
  const EmbeddingTable pushed = table_values(0, 1.0e6f);
  Store store = build_store(initial, /*timing=*/true);
  const RepublishConfig rate{256, 100.0};
  std::vector<TrickleRepublish> sessions;
  sessions.push_back(store.begin_trickle_republish(0, pushed,
                                                   identity_plan(256), rate));
  ASSERT_EQ(sessions[0].total_blocks(), 128u);
  const double start = store.now_us();
  while (!sessions[0].done()) {
    const std::size_t wrote = sessions[0].pump();
    if (sessions[0].written_blocks() < 128u || wrote > 0) {
      EXPECT_EQ(wrote, store.config().device.channels);
    }
    if (!sessions[0].done()) store.advance_time_us(rate.interval_us);
  }
  const double estimate =
      trickle_push_budget_us(session_blocks(sessions), rate,
                             store.config().device);
  EXPECT_DOUBLE_EQ(estimate, 3200.0);
  EXPECT_DOUBLE_EQ(store.now_us() - start, estimate);
}

}  // namespace
}  // namespace bandana
