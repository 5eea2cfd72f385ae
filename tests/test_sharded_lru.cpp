#include "cache/sharded_lru.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_sim.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/store.h"
#include "core/table.h"
#include "insertion_lru.h"
#include "nvm/block_storage.h"
#include "partition/layout.h"
#include "partition/shp.h"
#include "trace/characterizer.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

// ---- Shard-equivalence: one shard must BE the seed InsertionLru. ----

TEST(ShardedLru, SingleShardTraceIsByteIdenticalToSeedLru) {
  const std::uint32_t universe = 512;
  const std::uint64_t capacity = 64;
  const std::vector<double> points = {0.0, 0.5};
  InsertionLru seed(universe, capacity, points);
  ShardedInsertionLru sharded(universe, capacity, points);
  ASSERT_EQ(sharded.num_shards(), 1u);
  ASSERT_EQ(sharded.capacity(), capacity);

  Rng rng(7);
  ZipfSampler zipf(universe, 0.8);
  for (int op = 0; op < 20'000; ++op) {
    const auto v = static_cast<VectorId>(zipf(rng));
    if (rng.next_bernoulli(0.05)) {
      ASSERT_EQ(seed.erase(v), sharded.erase(0, v)) << "op " << op;
      continue;
    }
    const bool hit = seed.access(v);
    ASSERT_EQ(hit, sharded.access(0, v)) << "op " << op;
    if (!hit) {
      const std::size_t point = rng.next_bernoulli(0.5) ? 1 : 0;
      // Same eviction victim on every insert == same eviction order.
      ASSERT_EQ(seed.insert(v, point), sharded.insert(0, v, point))
          << "op " << op;
    }
    if (op % 997 == 0) {
      ASSERT_EQ(seed.contents(), sharded.contents()) << "op " << op;
    }
  }
  EXPECT_EQ(seed.size(), sharded.size());
  EXPECT_EQ(seed.contents(), sharded.contents());
}

TEST(ShardedLru, RejectsBadConfig) {
  EXPECT_THROW(ShardedInsertionLru(16, 0), std::invalid_argument);
  // The shard sizes must cover the universe exactly.
  EXPECT_THROW(ShardedInsertionLru(16, 4, {0.0}, {8, 4}),
               std::invalid_argument);
  EXPECT_THROW(ShardedInsertionLru(16, 4, {0.0}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(ShardedInsertionLru(16, 4, {0.0}, {8, 8, 5}),
               std::invalid_argument);
  // Insertion points as InsertionLru takes them.
  EXPECT_THROW(ShardedInsertionLru(16, 4, {0.5}), std::invalid_argument);
  EXPECT_THROW(ShardedInsertionLru(16, 4, {0.0, 1.0}), std::invalid_argument);
}

TEST(ShardedLru, CapacitySplitsProportionallyAcrossShards) {
  // Shard 0 holds 3/4 of the universe, shard 1 the remaining 1/4.
  const std::uint32_t universe = 400;
  ShardedInsertionLru cache(universe, 100, {0.0}, {300, 100});
  EXPECT_EQ(cache.capacity(), 100u);
  EXPECT_EQ(cache.shard_capacity(0), 75u);
  EXPECT_EQ(cache.shard_capacity(1), 25u);
}

TEST(ShardedLru, EveryShardGetsAtLeastOneEntry) {
  ShardedInsertionLru cache(4, 2, {0.0}, {1, 1, 1, 1});
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GE(cache.shard_capacity(s), 1u);
  }
}

TEST(ShardedLru, ShardsEvictIndependentlyAndStatsRoll) {
  // Id v belongs to shard v % 4.
  const std::uint32_t universe = 64;
  ShardedInsertionLru cache(universe, 16, {0.0}, {16, 16, 16, 16});

  // Fill shard 0 (ids 0,4,8,...) past its capacity: evictions stay inside
  // shard 0 while the other shards are untouched.
  std::set<VectorId> evicted;
  for (VectorId v = 0; v < universe; v += 4) {
    const VectorId victim = cache.insert(v % 4, v);
    if (victim != kInvalidVector) evicted.insert(victim);
  }
  EXPECT_EQ(evicted.size(), 16 - cache.shard_capacity(0));
  for (const VectorId v : evicted) EXPECT_EQ(v % 4, 0u);
  EXPECT_EQ(cache.shard_contents(1), std::vector<VectorId>{});

  const CacheShardStats s0 = cache.shard_stats(0);
  EXPECT_EQ(s0.inserts, 16u);
  EXPECT_EQ(s0.evictions, evicted.size());
  EXPECT_EQ(s0.size, cache.shard_capacity(0));
  const CacheShardStats total = cache.rollup();
  EXPECT_EQ(total.inserts, 16u);
  EXPECT_EQ(total.size, cache.size());
  EXPECT_EQ(total.capacity, cache.capacity());
}

// ---- Store-level equivalence and tolerance. ----

TableWorkloadConfig workload_config() {
  TableWorkloadConfig cfg;
  cfg.num_vectors = 4096;
  cfg.dim = 32;  // 128 B vectors
  cfg.mean_lookups_per_query = 12;
  cfg.num_profiles = 80;
  return cfg;
}

StoreConfig sharded_config(std::uint32_t shards) {
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = shards;
  return cfg;
}

/// Replays `trace` against the seed semantics (policy kNone: plain LRU,
/// per-query block-read dedup) using the unsharded InsertionLru directly.
struct SeedReplay {
  std::uint64_t hits = 0;
  std::uint64_t block_reads = 0;
  std::vector<VectorId> final_contents;
};

SeedReplay replay_seed(const Trace& trace, const BlockLayout& layout,
                       std::uint64_t capacity) {
  InsertionLru lru(layout.num_vectors(), capacity);
  SeedReplay r;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    std::set<BlockId> blocks_read;
    for (const VectorId v : trace.query(q)) {
      if (lru.access(v)) {
        ++r.hits;
        continue;
      }
      if (blocks_read.insert(layout.block_of(v)).second) ++r.block_reads;
      lru.insert(v, 0);
    }
  }
  r.final_contents = lru.contents();
  return r;
}

TEST(ShardedStore, OneShardReproducesSeedHitMissAndEvictionTrace) {
  TraceGenerator gen(workload_config(), 11);
  const EmbeddingTable values = gen.make_embeddings();
  const Trace trace = gen.generate(800);
  const auto layout = BlockLayout::random(4096, 32, 3);

  Store store(sharded_config(/*shards=*/1));
  TablePolicy policy;
  policy.cache_vectors = 400;
  policy.policy = PrefetchPolicy::kNone;
  const TableId t = store.add_table(values, layout, policy);
  ASSERT_EQ(store.table(t).num_shards(), 1u);

  std::vector<std::byte> out(128 * 256);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    store.lookup_batch(t, trace.query(q), out);
  }

  const SeedReplay want = replay_seed(trace, layout, 400);
  const TableMetrics m = store.table_metrics(t);
  EXPECT_EQ(m.hits, want.hits);
  EXPECT_EQ(m.nvm_block_reads, want.block_reads);
  // Not just the same counts: the exact same residents in the exact same
  // MRU->LRU order, i.e. the eviction order matched step for step.
  EXPECT_EQ(store.table(t).cache_contents(), want.final_contents);
}

TEST(ShardedStore, OneShardStoreMatchesSimulatorUnderEveryPolicy) {
  // The served table and simulate_cache implement the same six admission
  // policies. On a trace without repeats inside a query, one shard must
  // count exactly what the simulator counts — also below one block's
  // worth of vectors, where a block's own prefetches can evict the vector
  // that missed, which must then stay out. Block shapes vary too: 32, 8
  // and 128 vectors per block (a 128-vector block spans two 64-bit words
  // of kThreshold admit bits); the 4,090-vector universe leaves a partial
  // last block, which ends inside a word.
  const auto dedup = [](const Trace& raw) {
    Trace t;
    for (std::size_t q = 0; q < raw.num_queries(); ++q) {
      std::vector<VectorId> ids;
      std::set<VectorId> seen;
      for (const VectorId v : raw.query(q)) {
        if (seen.insert(v).second) ids.push_back(v);
      }
      t.add_query(ids);
    }
    return t;
  };
  struct BlockShape {
    std::uint32_t num_vectors;
    std::uint32_t vectors_per_block;
  };
  for (const BlockShape shape :
       {BlockShape{4096, 32}, BlockShape{4090, 8}, BlockShape{4090, 128}}) {
    TableWorkloadConfig wl = workload_config();
    wl.num_vectors = shape.num_vectors;
    TraceGenerator gen(wl, 14);
    const EmbeddingTable values = gen.make_embeddings();
    const Trace train = dedup(gen.generate(1500));
    const Trace trace = dedup(gen.generate(1500));
    ShpConfig shp_cfg;
    shp_cfg.vectors_per_block = shape.vectors_per_block;
    const ShpResult shp = run_shp(train, shape.num_vectors, shp_cfg);
    const auto layout =
        BlockLayout::from_order(shp.order, shape.vectors_per_block);
    StoreConfig cfg = sharded_config(/*shards=*/1);
    cfg.block_bytes = std::size_t{shape.vectors_per_block} * cfg.vector_bytes;

    for (const PrefetchPolicy p :
         {PrefetchPolicy::kNone, PrefetchPolicy::kAll,
          PrefetchPolicy::kPosition, PrefetchPolicy::kShadow,
          PrefetchPolicy::kShadowPosition, PrefetchPolicy::kThreshold}) {
      for (const std::uint64_t capacity : {1u, 16u, 31u, 64u, 400u}) {
        SCOPED_TRACE(std::to_string(shape.num_vectors) + " vectors, " +
                     std::to_string(shape.vectors_per_block) +
                     " per block, " + to_string(p) + " capacity " +
                     std::to_string(capacity));
        Store store(cfg);
        TablePolicy policy;
        policy.cache_vectors = capacity;
        policy.policy = p;
        policy.access_threshold = 5;
        const TableId t =
            store.add_table(values, layout, policy, shp.access_counts);
        std::vector<std::byte> out(128 * 256);
        for (std::size_t q = 0; q < trace.num_queries(); ++q) {
          store.lookup_batch(t, trace.query(q), out);
        }

        CachePolicyConfig sim;
        sim.capacity_vectors = capacity;
        sim.policy = p;
        sim.access_threshold = 5;
        sim.insertion_position = policy.insertion_position;
        sim.shadow_multiplier = policy.shadow_multiplier;
        const CacheSimResult want =
            simulate_cache(trace, layout, sim, shp.access_counts);
        const TableMetrics got = store.table_metrics(t);
        EXPECT_EQ(got.lookups, want.unique_lookups);
        EXPECT_EQ(got.hits, want.hits);
        EXPECT_EQ(got.nvm_block_reads, want.nvm_block_reads);
        EXPECT_EQ(got.prefetch_inserted, want.prefetch_inserted);
        EXPECT_EQ(got.prefetch_hits, want.prefetch_hits);
      }
    }
  }
}

TEST(ShardedStore, AddTableAndInstallRejectBadPolicyValues) {
  // The table's cache checks its policy as the simulator's does: a shadow
  // multiplier that is negative, NaN, or too large for the node index, an
  // insertion position outside [0, 1), and a policy value outside the
  // enum. add_table and begin_table_install both refuse before serving.
  TraceGenerator gen(workload_config(), 15);
  const EmbeddingTable values = gen.make_embeddings();
  const auto layout = BlockLayout::random(4096, 32, 3);
  const std::vector<std::uint32_t> counts(4096, 7);
  Store store(sharded_config(/*shards=*/4));
  const auto rejected = [&](const TablePolicy& policy) {
    EXPECT_THROW(store.add_table(values, layout, policy, counts),
                 std::invalid_argument);
    EXPECT_THROW(store.begin_table_install(layout, policy, counts),
                 std::invalid_argument);
  };
  TablePolicy policy;
  policy.cache_vectors = 400;
  for (const PrefetchPolicy p :
       {PrefetchPolicy::kShadow, PrefetchPolicy::kShadowPosition}) {
    policy.policy = p;
    for (const double m : {-1.0, std::nan(""), HUGE_VAL, 1e30}) {
      SCOPED_TRACE(std::string(to_string(p)) + " multiplier " +
                   std::to_string(m));
      policy.shadow_multiplier = m;
      rejected(policy);
    }
  }
  policy.shadow_multiplier = 1.5;
  for (const PrefetchPolicy p :
       {PrefetchPolicy::kPosition, PrefetchPolicy::kShadowPosition}) {
    policy.policy = p;
    for (const double pos : {-0.5, std::nan(""), 1.0}) {
      SCOPED_TRACE(std::string(to_string(p)) + " position " +
                   std::to_string(pos));
      policy.insertion_position = pos;
      rejected(policy);
    }
  }
  policy.insertion_position = 0.5;
  policy.policy = static_cast<PrefetchPolicy>(17);
  rejected(policy);
  EXPECT_EQ(store.num_tables(), 0u);
}

/// FNV-1a over the bytes of `n` trivially copyable values, continuing `h`.
template <typename T>
void fnv1a_mix(std::uint64_t& h, const T* data, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
}

TEST(ShardedStore, FourShardCacheDecisionsMatchPinnedDigests) {
  // A 4-shard table's cache decisions under each of the six policies,
  // pinned as FNV-1a digests recorded from the implementation with
  // per-vector shard, local-id, slot and prefetched arrays: the cached ids
  // shard by shard in MRU->LRU order, and every shard's counters. The
  // trace runs in two halves around a warm swap_state (same order and
  // policy, new access counts), in which every seventh block moves to a
  // new storage block, so the swap drops those blocks' cached members and
  // the second half refills the freed entries. Digests are taken after
  // the first half, after the swap and at the end. The cache holds 400
  // entries, or 5,000: more than the table's 4,096 vectors, so no shard
  // ever fills.
  constexpr std::uint32_t kVectors = 4096;
  constexpr std::uint32_t kVpb = 32;
  constexpr std::uint32_t kBlocks = kVectors / kVpb;
  constexpr std::size_t kVecBytes = 128;
  TraceGenerator gen(workload_config(), 21);
  const EmbeddingTable values = gen.make_embeddings();
  const Trace trace = gen.generate(1200);
  const std::vector<std::uint32_t> old_counts =
      access_counts(gen.generate(600), kVectors);
  const std::vector<std::uint32_t> new_counts =
      access_counts(gen.generate(600), kVectors);
  const BlockLayout layout = BlockLayout::random(kVectors, kVpb, 22);
  MemoryBlockStorage storage(2 * kBlocks, kVpb * kVecBytes);
  std::vector<BlockId> old_map(kBlocks), new_map(kBlocks);
  std::vector<std::byte> block(kVpb * kVecBytes);
  for (BlockId b = 0; b < kBlocks; ++b) {
    compose_block_bytes(layout, values, b, kVecBytes, block);
    old_map[b] = b;
    new_map[b] = b % 7 == 0 ? kBlocks + b : b;
    storage.write_block(old_map[b], block);
    storage.write_block(new_map[b], block);
  }
  StoreConfig cfg = sharded_config(/*shards=*/4);
  cfg.block_bytes = kVpb * kVecBytes;
  cfg.vector_bytes = kVecBytes;

  struct Pin {
    std::uint64_t contents;
    std::uint64_t stats;
  };
  struct Case {
    std::uint64_t capacity;
    PrefetchPolicy policy;
    Pin want;
  };
  const Case pinned[] = {
      {400, PrefetchPolicy::kNone,
       {0xeb66cfb22b3fd615ULL, 0xe10c767a92d5127aULL}},
      {400, PrefetchPolicy::kAll,
       {0x1904cc6601bd5e12ULL, 0x909169dc68d4a0c0ULL}},
      {400, PrefetchPolicy::kPosition,
       {0xf9192f35a644513bULL, 0xc4eeab1ceec1325bULL}},
      {400, PrefetchPolicy::kShadow,
       {0x1c458864781beb3fULL, 0x25bbd2fa469dd13cULL}},
      {400, PrefetchPolicy::kShadowPosition,
       {0xd3f4d9ad76ee8a1eULL, 0x110e92e508481751ULL}},
      {400, PrefetchPolicy::kThreshold,
       {0x1f2bb20141d190a3ULL, 0x1bcef69480669238ULL}},
      {5000, PrefetchPolicy::kNone,
       {0x179abebd9da5295bULL, 0xc83d492a66acc43cULL}},
      {5000, PrefetchPolicy::kAll,
       {0xc6dfd56783ed92c2ULL, 0xf6fb2f94a2a826f4ULL}},
      {5000, PrefetchPolicy::kPosition,
       {0x7bb6c6616f54ce16ULL, 0xf6fb2f94a2a826f4ULL}},
      {5000, PrefetchPolicy::kShadow,
       {0xcda385b0b6e68d04ULL, 0x8ddd765be16b9039ULL}},
      {5000, PrefetchPolicy::kShadowPosition,
       {0xa900d4bd4b7b90b6ULL, 0xf6fb2f94a2a826f4ULL}},
      {5000, PrefetchPolicy::kThreshold,
       {0x793305a66efe012fULL, 0x29d59cb9e78866d2ULL}},
  };
  for (const auto& [capacity, p, want] : pinned) {
    SCOPED_TRACE(std::string(to_string(p)) + ", " + std::to_string(capacity) +
                 " entries");
    TablePolicy policy;
    policy.cache_vectors = capacity;
    policy.policy = p;
    policy.access_threshold = 3;
    BandanaTable table(cfg, policy, layout, old_counts, old_map);
    ASSERT_EQ(table.num_shards(), 4u);
    Pin got{0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
    const auto mix = [&] {
      const std::vector<VectorId> contents = table.cache_contents();
      fnv1a_mix(got.contents, contents.data(), contents.size());
      for (std::uint32_t s = 0; s < table.num_shards(); ++s) {
        const CacheShardStats st = table.shard_stats(s);
        const std::uint64_t fields[] = {st.size,   st.capacity,
                                        st.accesses, st.hits,
                                        st.inserts,  st.evictions};
        fnv1a_mix(got.stats, fields, std::size(fields));
      }
    };
    std::vector<std::byte> out;
    std::vector<BandanaTable::LookupOutcome> outcomes;
    const auto serve = [&](std::size_t from, std::size_t to) {
      for (std::size_t q = from; q < to; ++q) {
        const auto ids = trace.query(q);
        out.resize(ids.size() * kVecBytes);
        outcomes.resize(ids.size());
        table.lookup_get(ids, storage, out, table.begin_batch(), nullptr,
                         outcomes);
      }
    };
    const std::size_t half = trace.num_queries() / 2;
    serve(0, half);
    mix();
    table.swap_state({layout, new_map, new_counts, policy});
    mix();
    serve(half, trace.num_queries());
    mix();
    EXPECT_EQ(got.contents, want.contents)
        << std::hex << "contents 0x" << got.contents;
    EXPECT_EQ(got.stats, want.stats) << std::hex << "stats 0x" << got.stats;
  }
}

TEST(ShardedStore, ShardedHitRateStaysWithinToleranceOfSeed) {
  TraceGenerator gen(workload_config(), 12);
  const EmbeddingTable values = gen.make_embeddings();
  const Trace trace = gen.generate(2000);
  const auto layout = BlockLayout::random(4096, 32, 5);
  TablePolicy policy;
  policy.cache_vectors = 512;
  policy.policy = PrefetchPolicy::kPosition;
  policy.insertion_position = 0.5;

  auto run = [&](std::uint32_t shards) {
    Store store(sharded_config(shards));
    const TableId t = store.add_table(values, layout, policy);
    std::vector<std::byte> out(128 * 256);
    for (std::size_t q = 0; q < trace.num_queries(); ++q) {
      store.lookup_batch(t, trace.query(q), out);
    }
    return store.table_metrics(t);
  };

  const TableMetrics seed = run(1);
  const TableMetrics sharded = run(8);
  EXPECT_EQ(seed.lookups, sharded.lookups);
  EXPECT_NEAR(seed.hit_rate(), sharded.hit_rate(), 0.05);
  // Sharding must not change what a miss costs, only who may run
  // concurrently: reads stay in the same ballpark too.
  EXPECT_NEAR(
      static_cast<double>(sharded.nvm_block_reads),
      static_cast<double>(seed.nvm_block_reads),
      0.15 * static_cast<double>(seed.nvm_block_reads));
}

class ShardedPolicyTest : public ::testing::TestWithParam<PrefetchPolicy> {};

TEST_P(ShardedPolicyTest, ServesCorrectBytesWithManyShards) {
  TraceGenerator gen(workload_config(), 13);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(sharded_config(/*shards=*/8));
  TablePolicy policy;
  policy.cache_vectors = 256;
  policy.policy = GetParam();
  std::vector<std::uint32_t> counts(4096);
  for (VectorId v = 0; v < 4096; ++v) counts[v] = v % 40;
  const TableId t = store.add_table(
      values, BlockLayout::random(4096, 32, 9), policy, counts);
  EXPECT_GT(store.table(t).num_shards(), 1u);

  const Trace trace = gen.generate(400);
  std::vector<std::byte> out(128 * 256);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    store.lookup_batch(t, ids, out);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto want = values.vector_bytes_view(ids[i]);
      ASSERT_EQ(std::memcmp(out.data() + i * 128, want.data(), 128), 0)
          << "policy " << to_string(GetParam()) << " vector " << ids[i];
    }
  }
  // Sharded caches still cache: the workload is skewed enough to hit.
  EXPECT_GT(store.table_metrics(t).hits, 0u);
  // The shard rollup agrees with the table metrics on traffic volume.
  const CacheShardStats stats = store.table(t).cache_stats();
  EXPECT_EQ(stats.hits, store.table_metrics(t).hits);
  EXPECT_LE(stats.size, stats.capacity);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ShardedPolicyTest,
    ::testing::Values(PrefetchPolicy::kNone, PrefetchPolicy::kAll,
                      PrefetchPolicy::kPosition, PrefetchPolicy::kShadow,
                      PrefetchPolicy::kShadowPosition,
                      PrefetchPolicy::kThreshold),
    [](const auto& info) {
      std::string s = to_string(info.param);
      for (char& c : s) {
        if (c == '+') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace bandana
