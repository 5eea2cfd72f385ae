// Online-retraining subsystem unit + property suite: the trickle rate
// limiter (per-interval admission caps over random configs), the layout
// plan diff, the republish no-op early-out, exactly-once trickle writes
// (every diff block written once, none skipped, none doubled — pinned by a
// write-counting storage shim), the epoch-swap consistency guarantee
// (old-plan bytes until the swap, new-plan bytes after), replacement-block
// recycling (double buffering), and the TrafficSampler / OnlineRetrainer
// loop itself.
#include "core/retrainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "core/store_builder.h"
#include "partition/layout.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 2048;
constexpr std::uint32_t kVpb = 32;
constexpr std::size_t kVecBytes = 128;

EmbeddingTable patterned_table(std::uint32_t vectors, float offset) {
  EmbeddingTable values(vectors, 32);
  for (VectorId v = 0; v < vectors; ++v) {
    auto row = values.vector(v);
    for (std::uint16_t d = 0; d < 32; ++d) {
      row[d] = offset + static_cast<float>(v) + 0.25f * static_cast<float>(d);
    }
  }
  return values;
}

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// Memory storage that counts write_block calls per block id — the
/// exactly-once pin of the trickle property tests.
class WriteCountingStorage final : public BlockStorage {
 public:
  struct Counters {
    std::mutex mu;
    std::map<BlockId, std::uint64_t> writes;
  };

  WriteCountingStorage(std::uint64_t num_blocks, std::size_t block_bytes,
                       std::shared_ptr<Counters> counters)
      : inner_(num_blocks, block_bytes), counters_(std::move(counters)) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_.read_block(b, out);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    {
      std::lock_guard lock(counters_->mu);
      ++counters_->writes[b];
    }
    inner_.write_block(b, in);
  }

 private:
  MemoryBlockStorage inner_;
  std::shared_ptr<Counters> counters_;
};

BlockStorageFactory write_counting_factory(
    std::shared_ptr<WriteCountingStorage::Counters> counters) {
  return [counters](std::uint64_t num_blocks, std::size_t block_bytes) {
    return std::make_unique<WriteCountingStorage>(num_blocks, block_bytes,
                                                  counters);
  };
}

StoreConfig store_config(bool timing = true) {
  StoreConfig cfg;
  cfg.simulate_timing = timing;
  cfg.cache_shards = 1;
  return cfg;
}

TablePolicy plain_policy(std::uint64_t cache_vectors) {
  TablePolicy policy;
  policy.cache_vectors = cache_vectors;
  policy.policy = PrefetchPolicy::kAll;
  return policy;
}

TablePlan make_plan(BlockLayout layout, std::uint64_t cache_vectors) {
  return TablePlan{std::move(layout), {}, plain_policy(cache_vectors), 0.0};
}

// ---------------------------------------------------------------------------
// TrickleRateLimiter properties.

TEST(TrickleRateLimiter, UnlimitedWhenBlocksPerIntervalZero) {
  TrickleRateLimiter limiter(RepublishConfig{0, 5.0});
  EXPECT_TRUE(limiter.unlimited());
  EXPECT_EQ(limiter.allowance(0.0), std::numeric_limits<std::uint64_t>::max());
  limiter.consume(0.0, 1'000'000);  // no-op
  EXPECT_EQ(limiter.allowance(123.0),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(TrickleRateLimiter, RejectsNonPositiveInterval) {
  EXPECT_THROW(TrickleRateLimiter(RepublishConfig{4, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(TrickleRateLimiter(RepublishConfig{4, -1.0}),
               std::invalid_argument);
}

TEST(TrickleRateLimiter, PerIntervalAdmissionsNeverExceedCapRandomized) {
  Rng rng(20240731);
  for (int round = 0; round < 200; ++round) {
    RepublishConfig cfg;
    cfg.blocks_per_interval = 1 + static_cast<std::uint32_t>(
        rng.next_below(64));
    cfg.interval_us = 1.0 + rng.next_double() * 500.0;
    TrickleRateLimiter limiter(cfg);

    std::map<std::int64_t, std::uint64_t> admitted_per_interval;
    double now = rng.next_double() * 100.0;
    for (int step = 0; step < 100; ++step) {
      // Random monotone clock: sometimes stay inside the interval,
      // sometimes jump several intervals ahead.
      now += rng.next_double() * cfg.interval_us * 2.0;
      const auto interval =
          static_cast<std::int64_t>(std::floor(now / cfg.interval_us));
      const std::uint64_t allowance = limiter.allowance(now);
      ASSERT_LE(allowance, cfg.blocks_per_interval);
      // Consume a random admissible amount.
      const std::uint64_t take =
          allowance == 0 ? 0 : rng.next_below(allowance + 1);
      limiter.consume(now, take);
      admitted_per_interval[interval] += take;
      ASSERT_LE(admitted_per_interval[interval], cfg.blocks_per_interval)
          << "interval " << interval << " over-admitted (cap "
          << cfg.blocks_per_interval << ")";
      // The remaining allowance must reflect what this interval already
      // admitted.
      ASSERT_EQ(limiter.allowance(now),
                cfg.blocks_per_interval - admitted_per_interval[interval]);
    }
  }
}

TEST(TrickleRateLimiter, IdleGapCannotBankACatchUpBurst) {
  // Regression: a pump stalled across many intervals must come back to ONE
  // interval's budget, not the sum of the missed ones — and a pump that
  // sized its wave from a stale pre-gap allowance must have its consume()
  // saturate at the cap instead of banking the excess.
  RepublishConfig cfg;
  cfg.blocks_per_interval = 8;
  cfg.interval_us = 100.0;
  TrickleRateLimiter limiter(cfg);
  EXPECT_EQ(limiter.allowance(0.0), 8u);
  limiter.consume(0.0, 8);
  EXPECT_EQ(limiter.allowance(50.0), 0u);

  // 40 idle intervals later: the allowance is one budget, not 40x.
  const double later = 40.5 * cfg.interval_us;
  EXPECT_EQ(limiter.allowance(later), 8u);
  limiter.consume(later, 8);
  EXPECT_EQ(limiter.allowance(later), 0u);

  // A stale oversized grant replayed into the exhausted interval:
  // consumption saturates (no underflow into a huge allowance), and the
  // next interval resets to exactly one budget.
  limiter.consume(later, 8);
  EXPECT_EQ(limiter.allowance(later), 0u);
  EXPECT_EQ(limiter.allowance(later + cfg.interval_us), 8u);
}

TEST(TricklePushBudget, LargestSessionSetsTheBudget) {
  // Each trickle session runs its own rate limiter, so sessions push side
  // by side: the budget is the slowest session's, not the sum's.
  RepublishConfig cfg;
  cfg.blocks_per_interval = 256;
  cfg.interval_us = 100.0;
  const std::vector<std::uint64_t> eight(8, 256);
  EXPECT_DOUBLE_EQ(trickle_push_budget_us(eight, cfg), 100.0);
  const std::vector<std::uint64_t> mixed = {10, 257, 512, 1};
  EXPECT_DOUBLE_EQ(trickle_push_budget_us(mixed, cfg), 200.0);
  const std::vector<std::uint64_t> one_over = {513};
  EXPECT_DOUBLE_EQ(trickle_push_budget_us(one_over, cfg), 300.0);
  // Nothing opened, or nothing to push: no budget to overrun.
  EXPECT_DOUBLE_EQ(trickle_push_budget_us({}, cfg), 0.0);
  const std::vector<std::uint64_t> empty_sessions = {0, 0};
  EXPECT_DOUBLE_EQ(trickle_push_budget_us(empty_sessions, cfg), 0.0);
  // Unlimited rate: the push is one wave, there is no budget.
  cfg.blocks_per_interval = 0;
  EXPECT_DOUBLE_EQ(trickle_push_budget_us(eight, cfg), 0.0);
}

// ---------------------------------------------------------------------------
// Layout plan diff.

TEST(LayoutDiff, IdenticalLayoutsHaveNoChangedBlocks) {
  const BlockLayout a = BlockLayout::random(kVectors, kVpb, 7);
  EXPECT_EQ(count_changed_blocks(a, a), 0u);
  const auto changed = changed_blocks(a, a);
  EXPECT_TRUE(std::all_of(changed.begin(), changed.end(),
                          [](std::uint8_t c) { return c == 0; }));
}

TEST(LayoutDiff, SwappingTwoVectorsChangesOnlyTheirBlocks) {
  const BlockLayout a = BlockLayout::identity(kVectors, kVpb);
  // Swap one vector of block 0 with one of block 5.
  std::vector<VectorId> order = a.order();
  std::swap(order[3], order[5 * kVpb + 7]);
  const BlockLayout b = BlockLayout::from_order(std::move(order), kVpb);
  const auto changed = changed_blocks(a, b);
  EXPECT_EQ(count_changed_blocks(a, b), 2u);
  EXPECT_TRUE(changed[0]);
  EXPECT_TRUE(changed[5]);
}

TEST(LayoutDiff, DisjointBlockCountsMarkTailChanged) {
  const BlockLayout a = BlockLayout::identity(kVpb * 4, kVpb);
  const BlockLayout b = BlockLayout::identity(kVpb * 6, kVpb);
  const auto changed = changed_blocks(a, b);
  ASSERT_EQ(changed.size(), 6u);
  EXPECT_EQ(count_changed_blocks(a, b), 2u);
  EXPECT_TRUE(changed[4]);
  EXPECT_TRUE(changed[5]);
}

// ---------------------------------------------------------------------------
// One-shot republish plan-diff early-out.

TEST(RepublishDiff, IdenticalValuesAreANoOpWithZeroLengthWave) {
  const EmbeddingTable values = patterned_table(kVectors, 0.0f);
  Store store(store_config());
  const TableId t = store.add_table(values, BlockLayout::identity(kVectors, kVpb),
                                    plain_policy(256));
  // Warm one vector so we can prove the cache survived.
  std::vector<std::byte> out(kVecBytes);
  store.lookup(t, 42, out);
  const auto warm_hits = store.table_metrics(t).hits;

  const auto endurance_before = store.endurance().total_bytes_written();
  const auto waves_before = store.store_metrics().write_waves;
  const auto wave_count_before = store.write_latency_us().count();

  const double latency = store.republish(t, values);

  EXPECT_EQ(latency, 0.0);
  EXPECT_EQ(store.endurance().total_bytes_written(), endurance_before);
  const StoreMetrics sm = store.store_metrics();
  EXPECT_EQ(sm.write_waves, waves_before + 1);  // zero-length wave recorded
  EXPECT_EQ(sm.republish_skipped_blocks, std::uint64_t{kVectors / kVpb});
  EXPECT_EQ(store.write_latency_us().count(), wave_count_before + 1);
  EXPECT_EQ(store.table_metrics(t).republish_writes, 0u);

  // The cache was not flushed: vector 42 is still a hit.
  store.lookup(t, 42, out);
  EXPECT_EQ(store.table_metrics(t).hits, warm_hits + 1);
}

TEST(RepublishDiff, RewritesOnlyChangedBlocksAndFlushesOnlyTheirMembers) {
  const EmbeddingTable values = patterned_table(kVectors, 0.0f);
  EmbeddingTable updated = patterned_table(kVectors, 0.0f);
  // Change exactly one vector -> exactly one block differs.
  updated.vector(100)[0] += 1000.0f;

  StoreConfig cfg = store_config();
  Store store(cfg);
  TablePolicy policy = plain_policy(256);
  policy.policy = PrefetchPolicy::kNone;  // keep cache contents predictable
  const TableId t = store.add_table(values, BlockLayout::identity(kVectors, kVpb),
                                    policy);
  std::vector<std::byte> out(kVecBytes);
  store.lookup(t, 100, out);  // same block as the change (identity layout)
  store.lookup(t, 500, out);  // different block: must stay warm

  const auto endurance_before = store.endurance().total_bytes_written();
  store.republish(t, updated);
  EXPECT_EQ(store.endurance().total_bytes_written(),
            endurance_before + cfg.block_bytes);  // one block rewritten
  EXPECT_EQ(store.table_metrics(t).republish_writes, std::uint64_t{kVpb});

  const auto hits_before = store.table_metrics(t).hits;
  store.lookup(t, 500, out);  // unchanged block: still cached
  EXPECT_EQ(store.table_metrics(t).hits, hits_before + 1);
  store.lookup(t, 100, out);  // changed block: flushed, re-read fresh bytes
  EXPECT_EQ(store.table_metrics(t).hits, hits_before + 1);
  EXPECT_TRUE(bytes_match(updated, 100, out));
}

// ---------------------------------------------------------------------------
// Trickle republish sessions.

TEST(TrickleRepublish, OldPlanServedUntilSwapNewPlanAfter) {
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 5000.0f);
  Store store(store_config());
  const TableId t = store.add_table(
      values_a, BlockLayout::identity(kVectors, kVpb), plain_policy(64));

  RepublishConfig rate;
  rate.blocks_per_interval = 8;
  rate.interval_us = 100.0;
  TrickleRepublish session = store.begin_trickle_republish(
      t, values_b, make_plan(BlockLayout::random(kVectors, kVpb, 3), 64),
      rate);
  ASSERT_FALSE(session.done());
  ASSERT_GT(session.total_blocks(), 0u);

  std::vector<std::byte> out(kVecBytes);
  // Mid-trickle: a few waves land, but every lookup still serves the OLD
  // plan's bytes — the consistency guarantee of the epoch swap.
  for (int wave = 0; wave < 3; ++wave) {
    session.pump();
    store.advance_time_us(rate.interval_us);
    for (const VectorId v : {0u, 100u, 999u, kVectors - 1}) {
      store.lookup(t, v, out);
      ASSERT_TRUE(bytes_match(values_a, v, out)) << "vector " << v;
    }
  }
  ASSERT_FALSE(session.done());

  // Drain the push.
  while (!session.done()) {
    if (session.pump() == 0) store.advance_time_us(rate.interval_us);
  }
  EXPECT_EQ(session.written_blocks(), session.total_blocks());

  // Post-swap: everything serves the NEW plan's bytes.
  for (const VectorId v : {0u, 100u, 999u, kVectors - 1}) {
    store.lookup(t, v, out);
    ASSERT_TRUE(bytes_match(values_b, v, out)) << "vector " << v;
  }
  EXPECT_EQ(store.store_metrics().mapping_swaps, 1u);
}

TEST(TrickleRepublish, PropertyEveryDiffBlockWrittenExactlyOnceUnderCap) {
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    auto counters = std::make_shared<WriteCountingStorage::Counters>();
    const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
    const EmbeddingTable values_b =
        patterned_table(kVectors, 1000.0f * (1 + round));
    Store store(store_config(), write_counting_factory(counters));
    const TableId t = store.add_table(
        values_a, BlockLayout::random(kVectors, kVpb, 11 + round),
        plain_policy(64));

    RepublishConfig rate;
    rate.blocks_per_interval =
        1 + static_cast<std::uint32_t>(rng.next_below(24));
    rate.interval_us = 1.0 + rng.next_double() * 200.0;
    TrickleRepublish session = store.begin_trickle_republish(
        t, values_b,
        make_plan(BlockLayout::random(kVectors, kVpb, 77 + round), 64), rate);

    const std::uint64_t total = session.total_blocks();
    ASSERT_EQ(total + session.skipped_blocks(), kVectors / kVpb);

    // Snapshot per-block write counts before the trickle (publish wrote the
    // initial image).
    std::map<BlockId, std::uint64_t> before;
    {
      std::lock_guard lock(counters->mu);
      before = counters->writes;
    }

    std::map<std::int64_t, std::uint64_t> per_interval;
    while (!session.done()) {
      const double now = store.now_us();
      const std::size_t wrote = session.pump();
      per_interval[static_cast<std::int64_t>(
          std::floor(now / rate.interval_us))] += wrote;
      if (wrote == 0) {
        store.advance_time_us(rng.next_double() * rate.interval_us * 1.5);
      }
    }
    EXPECT_EQ(session.written_blocks(), total);

    // Rate limit respected in every interval.
    for (const auto& [interval, blocks] : per_interval) {
      EXPECT_LE(blocks, rate.blocks_per_interval) << "interval " << interval;
    }

    // Exactly-once: the trickle wrote each replacement block once, and
    // exactly `total` distinct blocks got new writes.
    std::lock_guard lock(counters->mu);
    std::uint64_t touched = 0;
    for (const auto& [block, count] : counters->writes) {
      const auto it = before.find(block);
      const std::uint64_t delta = count - (it == before.end() ? 0 : it->second);
      if (delta == 0) continue;
      EXPECT_EQ(delta, 1u) << "block " << block << " written " << delta
                           << " times by the trickle";
      ++touched;
    }
    EXPECT_EQ(touched, total);
  }
}

TEST(TrickleRepublish, RecyclesReplacementBlocksAcrossPushes) {
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 1000.0f);
  const EmbeddingTable values_c = patterned_table(kVectors, 2000.0f);
  Store store(store_config());
  const TableId t = store.add_table(
      values_a, BlockLayout::identity(kVectors, kVpb), plain_policy(64));

  const auto run_push = [&](const EmbeddingTable& values, std::uint64_t seed) {
    TrickleRepublish session = store.begin_trickle_republish(
        t, values, make_plan(BlockLayout::random(kVectors, kVpb, seed), 64),
        RepublishConfig{16, 50.0});
    while (!session.done()) {
      if (session.pump() == 0) store.advance_time_us(50.0);
    }
  };
  run_push(values_b, 5);
  const std::uint64_t blocks_after_first = store.storage().num_blocks();
  // The second and third pushes recycle the blocks retired by the swap:
  // storage must not grow again (double buffering reached steady state).
  run_push(values_c, 6);
  EXPECT_EQ(store.storage().num_blocks(), blocks_after_first);
  run_push(values_a, 7);
  EXPECT_EQ(store.storage().num_blocks(), blocks_after_first);

  std::vector<std::byte> out(kVecBytes);
  store.lookup(t, 7, out);
  EXPECT_TRUE(bytes_match(values_a, 7, out));
}

TEST(TrickleRepublish, IdenticalPlanIsNoOpAndKeepsCacheWarm) {
  const EmbeddingTable values = patterned_table(kVectors, 0.0f);
  Store store(store_config());
  const BlockLayout layout = BlockLayout::random(kVectors, kVpb, 4);
  const TableId t = store.add_table(values, layout, plain_policy(256));
  std::vector<std::byte> out(kVecBytes);
  store.lookup(t, 9, out);
  const auto hits_before = store.table_metrics(t).hits;

  TrickleRepublish session = store.begin_trickle_republish(
      t, values, make_plan(BlockLayout::random(kVectors, kVpb, 4), 256),
      RepublishConfig{4, 10.0});
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.total_blocks(), 0u);
  EXPECT_EQ(session.skipped_blocks(), std::uint64_t{kVectors / kVpb});
  EXPECT_EQ(store.store_metrics().mapping_swaps, 0u);

  store.lookup(t, 9, out);  // still warm: no swap, no flush
  EXPECT_EQ(store.table_metrics(t).hits, hits_before + 1);
}

TEST(TrickleRepublish, OneSessionPerTableAndRepublishExclusion) {
  const EmbeddingTable values = patterned_table(kVectors, 0.0f);
  const EmbeddingTable updated = patterned_table(kVectors, 1.0f);
  Store store(store_config());
  const TableId t = store.add_table(
      values, BlockLayout::identity(kVectors, kVpb), plain_policy(64));

  TrickleRepublish session = store.begin_trickle_republish(
      t, updated, make_plan(BlockLayout::random(kVectors, kVpb, 2), 64),
      RepublishConfig{4, 10.0});
  ASSERT_FALSE(session.done());
  EXPECT_THROW(
      store.begin_trickle_republish(
          t, updated, make_plan(BlockLayout::random(kVectors, kVpb, 3), 64),
          RepublishConfig{4, 10.0}),
      std::logic_error);
  EXPECT_THROW(store.republish(t, updated), std::logic_error);
}

TEST(TrickleRepublish, AbandonedSessionLeavesOldPlanAndRecyclesBlocks) {
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 1000.0f);
  Store store(store_config());
  const TableId t = store.add_table(
      values_a, BlockLayout::identity(kVectors, kVpb), plain_policy(64));

  std::uint64_t blocks_after_abandon = 0;
  {
    TrickleRepublish session = store.begin_trickle_republish(
        t, values_b, make_plan(BlockLayout::random(kVectors, kVpb, 8), 64),
        RepublishConfig{4, 10.0});
    session.pump();  // a couple of waves land, then the session dies
    blocks_after_abandon = store.storage().num_blocks();
  }
  // Old plan still serves.
  std::vector<std::byte> out(kVecBytes);
  store.lookup(t, 11, out);
  EXPECT_TRUE(bytes_match(values_a, 11, out));
  EXPECT_EQ(store.store_metrics().mapping_swaps, 0u);

  // The abandoned session's replacement blocks are recycled: a full push
  // fits into the already-grown storage.
  TrickleRepublish session = store.begin_trickle_republish(
      t, values_b, make_plan(BlockLayout::random(kVectors, kVpb, 8), 64),
      RepublishConfig{0, 10.0});
  while (!session.done()) session.pump();
  EXPECT_EQ(store.storage().num_blocks(), blocks_after_abandon);
  store.lookup(t, 11, out);
  EXPECT_TRUE(bytes_match(values_b, 11, out));
}

TEST(TrickleRepublish, PeakWaveMemoryBoundedByAdmissionWave) {
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 1000.0f);
  StoreConfig cfg = store_config();
  cfg.device.queue_depth = 4;
  cfg.device.channels = 2;  // admission wave: 8 blocks per write_blocks call
  Store store(cfg);
  const TableId t = store.add_table(
      values_a, BlockLayout::identity(kVectors, kVpb), plain_policy(64));

  // Unlimited rate: the whole diff is admitted as fast as pump is called,
  // which is exactly when an eagerly-buffered push would hold every
  // replacement image at once.
  TrickleRepublish session = store.begin_trickle_republish(
      t, values_b, make_plan(BlockLayout::random(kVectors, kVpb, 12), 64),
      RepublishConfig{0, 10.0});
  const std::uint64_t total = session.total_blocks();
  ASSERT_GT(total, 8u);
  while (!session.done()) {
    if (session.pump() == 0) store.advance_time_us(10.0);
  }
  EXPECT_EQ(session.written_blocks(), total);

  // Lazy wave composition: the push buffered at most one admission wave of
  // block images at a time, never the whole diff.
  const std::uint64_t wave_bytes = 8ull * cfg.block_bytes;
  EXPECT_GT(session.peak_wave_bytes(), 0u);
  EXPECT_LE(session.peak_wave_bytes(), wave_bytes);
  EXPECT_LT(session.peak_wave_bytes(), total * cfg.block_bytes);
}

// ---------------------------------------------------------------------------
// TrafficSampler.

TEST(TrafficSampler, ReservoirBoundedAndCountersTrack) {
  SamplerConfig cfg;
  cfg.reservoir_queries = 16;
  TrafficSampler sampler(2, cfg);
  std::vector<VectorId> ids{1, 2, 3, 4};
  for (int i = 0; i < 100; ++i) {
    sampler.on_table_get(0, ids, /*hits=*/3, /*misses=*/1);
  }
  EXPECT_EQ(sampler.reservoir_size(0), 16u);
  EXPECT_EQ(sampler.reservoir_size(1), 0u);
  const TableTrafficStats stats = sampler.traffic(0);
  EXPECT_EQ(stats.seen_queries, 100u);
  EXPECT_EQ(stats.lookups, 400u);
  EXPECT_EQ(stats.hits, 300u);
  EXPECT_NEAR(stats.hit_rate(), 0.75, 1e-12);
  EXPECT_EQ(sampler.total_sampled(), 100u);

  auto traces = sampler.drain();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].num_queries(), 16u);
  EXPECT_EQ(traces[1].num_queries(), 0u);
  EXPECT_EQ(sampler.reservoir_size(0), 0u);  // drained
  // Counters are cumulative.
  EXPECT_EQ(sampler.traffic(0).seen_queries, 100u);
}

TEST(TrafficSampler, DeterministicPerSeedAndSamplingRateGates) {
  SamplerConfig cfg;
  cfg.reservoir_queries = 8;
  cfg.sampling_rate = 0.25;
  cfg.seed = 7;
  const auto run = [&] {
    TrafficSampler sampler(1, cfg);
    for (VectorId q = 0; q < 200; ++q) {
      const std::vector<VectorId> ids{q, q + 1};
      sampler.on_table_get(0, ids, 1, 1);
    }
    auto traces = sampler.drain();
    return std::make_pair(sampler.total_sampled(), std::move(traces[0]));
  };
  const auto [sampled_a, trace_a] = run();
  const auto [sampled_b, trace_b] = run();
  EXPECT_EQ(sampled_a, sampled_b);
  EXPECT_TRUE(trace_a == trace_b);  // bit-identical replay
  // The gate admits roughly sampling_rate of the stream.
  EXPECT_GT(sampled_a, 20u);
  EXPECT_LT(sampled_a, 90u);
}

// ---------------------------------------------------------------------------
// OnlineRetrainer end-to-end (synchronous mode).

TEST(OnlineRetrainer, RetrainNowRepacksFromSampledTrafficAndPushes) {
  TableWorkloadConfig wl;
  wl.num_vectors = kVectors;
  wl.dim = 32;
  wl.mean_lookups_per_query = 12;
  wl.num_profiles = 64;
  TraceGenerator gen(wl, 21);
  const EmbeddingTable values = gen.make_embeddings();

  StoreConfig cfg = store_config();
  Store store(cfg);
  TablePolicy policy = plain_policy(256);
  policy.policy = PrefetchPolicy::kPosition;
  policy.insertion_position = 0.5;
  const TableId t = store.add_table(
      values, BlockLayout::identity(kVectors, kVpb), policy);
  const std::vector<VectorId> old_order = store.table(t).layout().order();

  RetrainerConfig rc;
  rc.sampler.reservoir_queries = 512;
  rc.republish.blocks_per_interval = 16;
  rc.republish.interval_us = 50.0;
  rc.trainer.partitioner.shp.iters_per_level = 4;
  OnlineRetrainer retrainer(store, rc,
                            [&](TableId) -> const EmbeddingTable& {
                              return values;
                            });

  // Serve traffic through the tap.
  const Trace trace = gen.generate(400);
  std::vector<std::byte> out(kVecBytes * 256);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    store.lookup_batch(t, ids, {out.data(), ids.size() * kVecBytes});
  }
  EXPECT_EQ(retrainer.sampler().traffic(t).seen_queries,
            trace.num_queries());

  ASSERT_EQ(retrainer.retrain_now(), 1u);  // SHP moved blocks -> one session
  EXPECT_TRUE(retrainer.republishing());
  while (retrainer.republishing()) {
    if (retrainer.pump() == 0) store.advance_time_us(50.0);
  }
  const RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_GT(stats.blocks_written, 0u);
  EXPECT_EQ(stats.blocks_written + stats.blocks_skipped,
            std::uint64_t{kVectors / kVpb});

  // The latency budget breaks the retrain into phases and surfaces the
  // same telemetry through StoreMetrics.
  EXPECT_GT(stats.drain_us, 0.0);
  EXPECT_GT(stats.train_us, 0.0);
  EXPECT_GT(stats.diff_us, 0.0);
  EXPECT_GT(stats.peak_training_bytes, 0u);
  const StoreMetrics sm = store.store_metrics();
  EXPECT_EQ(sm.retrain_runs, 1u);
  EXPECT_GT(sm.retrain_train_us, 0.0);
  EXPECT_EQ(sm.retrain_peak_training_bytes, stats.peak_training_bytes);
  EXPECT_EQ(sm.retrain_budget_overruns, stats.budget_overruns);

  // A second retrain with no new sampled traffic is a no-op (checked
  // before the verification lookups below, which feed the sampler again).
  EXPECT_EQ(retrainer.retrain_now(), 0u);

  // The layout actually changed and lookups still serve correct bytes.
  EXPECT_NE(store.table(t).layout().order(), old_order);
  for (const VectorId v : {0u, 17u, 1000u, kVectors - 1}) {
    store.lookup(t, v, {out.data(), kVecBytes});
    EXPECT_TRUE(bytes_match(values, v, {out.data(), kVecBytes}));
  }
}

}  // namespace
}  // namespace bandana
