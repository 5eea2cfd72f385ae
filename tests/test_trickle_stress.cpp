// Concurrency stress for the trickle-republish mapping swap: reader
// threads hammer multi_get_async while a trickle republish (new layout AND
// new values) runs to completion — repeatedly, with block recycling across
// pushes. The torn-vector assertion: every embedding a request returns is
// byte-for-byte the OLD plan's value or the NEW plan's value, never a mix
// of the two — a lookup serves entirely from one consistent mapping. After
// each swap quiesces, every vector must serve the final values. A closing
// one-shot republish of every other block, also under live readers, must
// keep the unchanged blocks' cached members and drop the rewritten ones.
//
// Runs on the plain memory backend (inline reads under the shard locks)
// and on a batched-read backend (the staged pipeline, where a swap
// between the staging peek and the lookup leaves the new block unstaged
// and the lookup reads it inline).
// A file-backed case finishes two tables' pushes from two threads at once:
// both swaps update the store-wide free list and commit the manifest.
// The suite is in the `concurrency` + `retraining` ctest labels and must
// be TSan-clean.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/retrainer.h"
#include "core/store.h"
#include "core/store_builder.h"
#include "core/trainer.h"
#include "manifest_audit.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 4096;
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

bool equals_value(const EmbeddingTable& values, VectorId v,
                  std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// Memory storage that advertises batched reads, so the store runs the
/// staged pipeline (staging peek + batched fetch) against it.
class BatchedMemoryStorage final : public BlockStorage {
 public:
  BatchedMemoryStorage(std::uint64_t num_blocks, std::size_t block_bytes)
      : inner_(num_blocks, block_bytes) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_.read_block(b, out);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_.write_block(b, in);
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    for (const auto& op : ops) inner_.read_block(op.block, op.out);
  }
  bool prefers_batched_reads() const override { return true; }

 private:
  MemoryBlockStorage inner_;
};

/// Every vector of table `t` serves exactly `values`.
void expect_serves(Store& store, TableId t, const EmbeddingTable& values) {
  std::vector<VectorId> ids(kVectors);
  std::iota(ids.begin(), ids.end(), VectorId{0});
  std::vector<std::byte> out(std::size_t{kVectors} * kVecBytes);
  store.lookup_batch(t, ids, out);
  for (const VectorId v : ids) {
    ASSERT_TRUE(equals_value(values, v, {out.data() + v * kVecBytes,
                                         kVecBytes}))
        << "post-swap vector " << v;
  }
}

TablePlan make_plan(BlockLayout layout, std::uint64_t cache_vectors) {
  TablePolicy policy;
  policy.cache_vectors = cache_vectors;
  policy.policy = PrefetchPolicy::kAll;  // max admission churn per block read
  return TablePlan{std::move(layout), {}, policy, 0.0};
}

void run_swap_stress(BlockStorageFactory factory, std::uint64_t seed) {
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 1.0e6f);

  StoreConfig cfg;
  cfg.simulate_timing = false;  // pure serving-path concurrency
  cfg.cache_shards = 4;
  Store store(cfg, std::move(factory));
  TablePolicy policy;
  policy.cache_vectors = 512;  // heavy eviction churn
  policy.policy = PrefetchPolicy::kAll;
  const TableId t = store.add_table(
      values_a, BlockLayout::random(kVectors, kVpb, seed), policy);

  constexpr std::size_t kRequests = 900;
  constexpr std::size_t kIdsPerRequest = 24;
  constexpr std::size_t kWindow = 16;
  ThreadPool pool(4);
  Rng rng(seed);

  // Pre-build deterministic request id lists; interleaving with the pushes
  // is what the threads randomize.
  std::vector<std::vector<VectorId>> all_ids(kRequests);
  for (auto& ids : all_ids) {
    ids.reserve(kIdsPerRequest);
    for (std::size_t i = 0; i < kIdsPerRequest; ++i) {
      ids.push_back(static_cast<VectorId>(rng.next_below(kVectors)));
    }
  }

  struct InFlight {
    std::future<MultiGetResult> future;
    const std::vector<VectorId>* ids;
  };
  std::vector<InFlight> inflight;
  std::size_t checked = 0;
  const auto settle_one = [&](const EmbeddingTable& old_values,
                              const EmbeddingTable& new_values) {
    InFlight f = std::move(inflight.front());
    inflight.erase(inflight.begin());
    const MultiGetResult res = f.future.get();
    ASSERT_EQ(res.vectors.size(), 1u);
    const auto& bytes = res.vectors[0];
    ASSERT_EQ(bytes.size(), f.ids->size() * kVecBytes);
    for (std::size_t i = 0; i < f.ids->size(); ++i) {
      const std::span<const std::byte> got{bytes.data() + i * kVecBytes,
                                           kVecBytes};
      const VectorId v = (*f.ids)[i];
      // The torn-vector assertion: old-plan bytes or new-plan bytes,
      // never a mix (equals_value compares the full 128 B).
      ASSERT_TRUE(equals_value(old_values, v, got) ||
                  equals_value(new_values, v, got))
          << "torn vector " << v << " (request " << checked << ")";
    }
    ++checked;
  };

  // Three consecutive pushes (A -> B -> A -> B) with block recycling,
  // readers hammering throughout.
  const EmbeddingTable* live = &values_a;
  std::size_t q = 0;
  for (int push = 0; push < 3; ++push) {
    const EmbeddingTable& next = (push % 2 == 0) ? values_b : values_a;
    RepublishConfig rate;
    rate.blocks_per_interval = 8;
    rate.interval_us = 25.0;
    TrickleRepublish session = store.begin_trickle_republish(
        t, next, make_plan(BlockLayout::random(kVectors, kVpb, seed + push), 512),
        rate);
    while (!session.done()) {
      // Keep the reader window full.
      while (inflight.size() < kWindow && q < kRequests) {
        MultiGetRequest req;
        req.add(t, all_ids[q]);
        inflight.push_back(
            {store.multi_get_async(std::move(req), pool), &all_ids[q]});
        ++q;
      }
      if (!inflight.empty()) settle_one(*live, next);
      if (session.pump() == 0) store.advance_time_us(rate.interval_us);
    }
    // Drain the window before asserting the post-swap state: in-flight
    // requests may still carry pre-swap bytes.
    while (!inflight.empty()) settle_one(*live, next);
    live = &next;

    // Quiesced after the swap: everything serves the new plan exactly.
    expect_serves(store, t, *live);
  }
  EXPECT_GE(checked, kWindow);
  EXPECT_EQ(store.store_metrics().mapping_swaps, 3u);

  // One-shot republish of every other block (even b) on the current
  // layout, with a full reader window in flight. The readers touch only
  // cache shards 0 and 1 (shard = block % 4), which mix rewritten and
  // unchanged blocks, so shards 2 and 3 show the swap's cache carry-over
  // exactly: shard 2 holds only rewritten blocks and must come out empty,
  // shard 3 only unchanged ones and must keep every entry, in LRU order.
  ASSERT_EQ(store.table(t).num_shards(), 4u);
  const BlockLayout layout = store.table(t).mapping_snapshot().layout;
  const auto shard_of = [&](VectorId v) { return layout.block_of(v) % 4; };
  EmbeddingTable values_c = *live;
  for (BlockId b = 0; b < layout.num_blocks(); b += 2) {
    for (const VectorId v : layout.block_members(b)) {
      values_c.vector(v)[0] += 3.0e6f;
    }
  }
  std::vector<VectorId> reader_pool;
  for (VectorId v = 0; v < kVectors; ++v) {
    if (shard_of(v) < 2) reader_pool.push_back(v);
  }
  std::vector<std::vector<VectorId>> reader_ids(kWindow);
  for (auto& ids : reader_ids) {
    for (std::size_t i = 0; i < kIdsPerRequest; ++i) {
      ids.push_back(reader_pool[rng.next_below(reader_pool.size())]);
    }
  }
  const auto in_shard = [&](const std::vector<VectorId>& ids,
                            std::uint32_t shard) {
    std::vector<VectorId> out;
    for (const VectorId v : ids) {
      if (shard_of(v) == shard) out.push_back(v);
    }
    return out;
  };
  const std::vector<VectorId> cached = store.table(t).cache_contents();
  const std::vector<VectorId> kept = in_shard(cached, 3);
  ASSERT_FALSE(kept.empty());
  ASSERT_FALSE(in_shard(cached, 2).empty());

  for (const auto& ids : reader_ids) {
    MultiGetRequest req;
    req.add(t, ids);
    inflight.push_back({store.multi_get_async(std::move(req), pool), &ids});
  }
  store.republish(t, values_c);
  while (!inflight.empty()) settle_one(*live, values_c);
  EXPECT_EQ(store.store_metrics().mapping_swaps, 4u);

  const std::vector<VectorId> after = store.table(t).cache_contents();
  EXPECT_TRUE(in_shard(after, 2).empty());
  EXPECT_EQ(in_shard(after, 3), kept);
  const std::uint64_t hits_before = store.table_metrics(t).hits;
  std::vector<std::byte> out(kVecBytes);
  for (const VectorId v : kept) {
    store.lookup(t, v, out);
    ASSERT_TRUE(equals_value(values_c, v, out)) << "kept vector " << v;
  }
  EXPECT_EQ(store.table_metrics(t).hits, hits_before + kept.size());
  expect_serves(store, t, values_c);

  // Pipeline hygiene under the swap: the staged path may leave blocks
  // unstaged and read them inline, but truncation never happens at these
  // sizes.
  EXPECT_EQ(store.store_metrics().stage_truncated_blocks, 0u);
}

TEST(TrickleSwapStress, NoTornVectorsOnInlineBackend) {
  run_swap_stress(memory_storage_factory(), 0xA11CE);
}

TEST(TrickleSwapStress, NoTornVectorsOnBatchedStagedBackend) {
  run_swap_stress(
      [](std::uint64_t num_blocks, std::size_t block_bytes) {
        return std::make_unique<BatchedMemoryStorage>(num_blocks, block_bytes);
      },
      0xBEE5);
}

/// Two tables' pushes pumped to completion from two threads at once, with
/// multi_get_async readers on both tables throughout. Each finish swaps
/// its table, returns the old blocks to the ONE store-wide free list and
/// commits, under the shared storage lock plus the manifest lock — so the
/// two finishes race each other and the readers, never the allocator.
TEST(TrickleSwapStress, ConcurrentFinishesShareOneFreeList) {
  const std::string block =
      "/tmp/bandana_trickle_finish_" + std::to_string(::getpid()) + ".bin";
  const std::string manifest = block + ".manifest";
  const EmbeddingTable values_a = patterned_table(kVectors, 0.0f);
  const EmbeddingTable values_b = patterned_table(kVectors, 1.0e6f);

  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 4;
  Store store =
      StoreBuilder(cfg)
          .file_storage(block)
          .manifest(manifest)
          .add_table(values_a,
                     make_plan(BlockLayout::random(kVectors, kVpb, 1), 512))
          .add_table(values_a,
                     make_plan(BlockLayout::random(kVectors, kVpb, 2), 512))
          .build();
  const std::uint64_t blocks_per_table = kVectors / kVpb;

  constexpr std::size_t kIdsPerRequest = 24;
  constexpr std::size_t kWindow = 8;
  ThreadPool pool(2);
  Rng rng(0xF1F1);
  const EmbeddingTable* live = &values_a;
  for (int round = 0; round < 4; ++round) {
    const EmbeddingTable& next = round % 2 == 0 ? values_b : values_a;
    RepublishConfig rate;
    rate.blocks_per_interval = 16;
    rate.interval_us = 10.0;
    std::vector<TrickleRepublish> sessions;
    for (TableId t = 0; t < 2; ++t) {
      sessions.push_back(store.begin_trickle_republish(
          t, next,
          make_plan(BlockLayout::random(kVectors, kVpb, 10 * round + t + 3),
                    512),
          rate));
    }
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    const auto pump_to_done = [&](TrickleRepublish& session) {
      // Start together so the two sessions' last waves and finishes race.
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
      while (!session.done()) {
        if (session.pump() == 0) store.advance_time_us(rate.interval_us);
      }
      finished.fetch_add(1);
    };
    std::thread pump0(pump_to_done, std::ref(sessions[0]));
    std::thread pump1(pump_to_done, std::ref(sessions[1]));

    std::vector<std::pair<std::future<MultiGetResult>, std::vector<VectorId>>>
        inflight;
    std::size_t bad = 0;
    const auto settle_one = [&] {
      auto [future, ids] = std::move(inflight.front());
      inflight.erase(inflight.begin());
      const MultiGetResult res = future.get();
      for (std::size_t g = 0; g < 2; ++g) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::span<const std::byte> got{
              res.vectors[g].data() + i * kVecBytes, kVecBytes};
          if (!equals_value(*live, ids[i], got) &&
              !equals_value(next, ids[i], got)) {
            ++bad;
          }
        }
      }
    };
    while (finished.load() < 2) {
      while (inflight.size() < kWindow) {
        std::vector<VectorId> ids;
        for (std::size_t i = 0; i < kIdsPerRequest; ++i) {
          ids.push_back(static_cast<VectorId>(rng.next_below(kVectors)));
        }
        MultiGetRequest req;
        req.add(0, ids).add(1, ids);
        inflight.emplace_back(store.multi_get_async(std::move(req), pool),
                              std::move(ids));
      }
      settle_one();
    }
    pump0.join();
    pump1.join();
    while (!inflight.empty()) settle_one();
    EXPECT_EQ(bad, 0u) << "torn vectors in round " << round;
    live = &next;

    expect_serves(store, 0, next);
    expect_serves(store, 1, next);
    EXPECT_EQ(store.store_metrics().mapping_swaps,
              2u * static_cast<std::uint64_t>(round + 1));
    // Each push rewrites every block of both tables, recycling the blocks
    // the previous round freed: storage settles at two footprints each.
    EXPECT_EQ(store.storage().num_blocks(), 4 * blocks_per_table);
    EXPECT_TRUE(manifest_accounts_every_block(manifest));
  }
  std::remove(block.c_str());
  std::remove(manifest.c_str());
}

/// The background retrainer thread end-to-end: serving threads feed the
/// sampler while the retrainer auto-retrains and pumps its own trickle —
/// the full concurrency boundary (serving pool vs retrain thread) under
/// TSan.
TEST(TrickleSwapStress, BackgroundRetrainerThreadSwapsWhileServing) {
  TableWorkloadConfig wl;
  wl.num_vectors = kVectors;
  wl.dim = 32;
  wl.mean_lookups_per_query = 16;
  wl.num_profiles = 64;
  TraceGenerator gen(wl, 5);
  const EmbeddingTable values = gen.make_embeddings();

  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 4;
  Store store(cfg);
  TablePolicy policy;
  policy.cache_vectors = 512;
  policy.policy = PrefetchPolicy::kPosition;
  policy.insertion_position = 0.5;
  const TableId t = store.add_table(
      values, BlockLayout::identity(kVectors, kVpb), policy);

  RetrainerConfig rc;
  rc.sampler.reservoir_queries = 256;
  rc.trainer.partitioner.shp.iters_per_level = 2;
  rc.republish.blocks_per_interval = 16;
  rc.republish.interval_us = 10.0;
  rc.min_sampled_queries = 200;
  rc.poll_interval_ms = 0.2;
  OnlineRetrainer retrainer(
      store, rc, [&](TableId) -> const EmbeddingTable& { return values; });
  retrainer.start();

  const Trace trace = gen.generate(1200);
  ThreadPool pool(4);
  std::vector<std::future<MultiGetResult>> inflight;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(t, trace.query(q));
    inflight.push_back(store.multi_get_async(std::move(req), pool));
    if (inflight.size() >= 32) {
      // Values never change in this test, so every byte must match.
      const MultiGetResult res = inflight.front().get();
      inflight.erase(inflight.begin());
      ASSERT_FALSE(res.vectors.empty());
      store.advance_time_us(5.0);  // drive the trickle's simulated clock
    }
  }
  for (auto& f : inflight) f.get();
  retrainer.stop();
  // Drain any session the thread left mid-flight so the swap count below
  // is stable, then verify bytes.
  while (retrainer.republishing()) {
    if (retrainer.pump() == 0) store.advance_time_us(10.0);
  }
  std::vector<std::byte> out(kVecBytes);
  for (const VectorId v : {1u, 333u, kVectors - 1}) {
    store.lookup(t, v, out);
    EXPECT_TRUE(equals_value(values, v, out));
  }
  // The background thread really retrained (sampled traffic was ample).
  EXPECT_GE(retrainer.stats().retrains, 1u);
}

}  // namespace
}  // namespace bandana
