// DRAM accounting: BandanaTable / Store / StoreCluster::dram_bytes.
//
// The pin: a table of 1M 128-byte vectors with 4 % of them in DRAM, on 4
// shards, holds at most 18 B per vector beyond its slab in the categories
// it owns (layout, admission, block maps, cache and shadow indexes) under
// the policies without a shadow, and at most 24 B under the two shadow
// policies. The index is one 4-byte node per vector plus a node pool
// sized to the slab, so filling the cache must not move any category. A
// cache larger than its table buys one slot per vector, not per entry.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/store.h"
#include "core/table.h"
#include "nvm/async_file_storage.h"
#include "nvm/block_storage.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

std::uint64_t table_owned(const DramBytes& d) {
  return d.layout + d.admission + d.block_maps + d.cache_index +
         d.shadow_index;
}

TEST(DramBytes, MillionVectorTableIndexStaysUnderPinnedBytesPerVector) {
  constexpr std::uint32_t kVectors = 1'000'000;
  constexpr std::size_t kVecBytes = 128;
  constexpr std::size_t kBlockBytes = 4096;
  constexpr std::uint32_t kVpb = kBlockBytes / kVecBytes;
  constexpr std::uint32_t kBlocks = (kVectors + kVpb - 1) / kVpb;
  StoreConfig cfg;
  cfg.block_bytes = kBlockBytes;
  cfg.vector_bytes = kVecBytes;
  cfg.cache_shards = 4;
  const BlockLayout layout = BlockLayout::identity(kVectors, kVpb);
  std::vector<std::uint32_t> counts(kVectors);
  for (VectorId v = 0; v < kVectors; ++v) counts[v] = v % 7;
  // Every local block maps to the one storage block: the bytes served
  // do not matter here, only that lookups fill and churn the cache.
  MemoryBlockStorage storage(1, kBlockBytes);
  const std::vector<BlockId> map(kBlocks, 0);

  for (const PrefetchPolicy p :
       {PrefetchPolicy::kNone, PrefetchPolicy::kAll,
        PrefetchPolicy::kPosition, PrefetchPolicy::kShadow,
        PrefetchPolicy::kShadowPosition, PrefetchPolicy::kThreshold}) {
    SCOPED_TRACE(to_string(p));
    TablePolicy policy;
    policy.cache_vectors = kVectors / 25;  // 4 %
    policy.policy = p;
    policy.access_threshold = 3;
    BandanaTable table(cfg, policy, layout, counts, map);
    ASSERT_EQ(table.num_shards(), 4u);

    const DramBytes before = table.dram_bytes();
    EXPECT_EQ(before.slab, policy.cache_vectors * kVecBytes);
    EXPECT_EQ(before.layout, std::uint64_t{kVectors} * 8);
    EXPECT_EQ(before.staging, 0u);
    EXPECT_EQ(before.retired_states, 0u);
    EXPECT_EQ(before.storage_buffers, 0u);
    const bool shadow = p == PrefetchPolicy::kShadow ||
                        p == PrefetchPolicy::kShadowPosition;
    EXPECT_EQ(before.shadow_index > 0, shadow);
    const double per_vector = static_cast<double>(table_owned(before)) /
                              static_cast<double>(kVectors);
    EXPECT_LE(per_vector, shadow ? 24.0 : 18.0);

    // Serve 3x the capacity in distinct ids, scattered over the table:
    // the cache fills and evicts, and no category grows.
    std::vector<VectorId> ids(256);
    std::vector<std::byte> out(ids.size() * kVecBytes);
    std::vector<BandanaTable::LookupOutcome> outcomes(ids.size());
    VectorId next = 0;
    for (std::uint64_t served = 0; served < 3 * policy.cache_vectors;
         served += ids.size()) {
      for (VectorId& v : ids) {
        v = next;
        next = (next + 7919) % kVectors;
      }
      table.lookup_get(ids, storage, out, table.begin_batch(), nullptr,
                       outcomes);
    }
    EXPECT_EQ(table.cache_stats().size, policy.cache_vectors);
    EXPECT_EQ(table.dram_bytes(), before);
  }
}

TEST(DramBytes, CacheAboveTheTableBuysOneSlotPerVector) {
  // A shard never holds more entries than it serves ids, so cache_vectors
  // past the table's vectors buys no slab or node past them: 5,000
  // entries over 4,096 vectors cost exactly what 4,096 do, with and
  // without a shadow. The shard capacities, which set the segment targets
  // and the shadow's size, stay as requested, and a cache that takes in
  // every vector grows nothing.
  constexpr std::uint32_t kVectors = 4096;
  constexpr std::uint32_t kVpb = 32;
  StoreConfig cfg;
  cfg.cache_shards = 4;
  const BlockLayout layout = BlockLayout::identity(kVectors, kVpb);
  std::vector<BlockId> map(layout.num_blocks());
  std::iota(map.begin(), map.end(), BlockId{0});
  MemoryBlockStorage storage(layout.num_blocks(), cfg.block_bytes);
  for (const PrefetchPolicy p :
       {PrefetchPolicy::kAll, PrefetchPolicy::kShadowPosition}) {
    SCOPED_TRACE(to_string(p));
    TablePolicy policy;
    policy.policy = p;
    policy.insertion_position = 0.5;
    policy.cache_vectors = kVectors;
    const BandanaTable at_size(cfg, policy, layout, {}, map);
    policy.cache_vectors = 5000;
    BandanaTable above(cfg, policy, layout, {}, map);
    ASSERT_EQ(above.num_shards(), 4u);
    const DramBytes before = above.dram_bytes();
    EXPECT_EQ(before.slab, std::uint64_t{kVectors} * cfg.vector_bytes);
    EXPECT_EQ(before, at_size.dram_bytes());
    EXPECT_EQ(above.cache_stats().capacity, 5000u);

    std::vector<VectorId> ids(kVectors);
    std::iota(ids.begin(), ids.end(), VectorId{0});
    std::vector<std::byte> out(ids.size() * cfg.vector_bytes);
    std::vector<BandanaTable::LookupOutcome> outcomes(ids.size());
    above.lookup_get(ids, storage, out, above.begin_batch(), nullptr,
                     outcomes);
    EXPECT_EQ(above.cache_stats().size, kVectors);
    EXPECT_EQ(above.dram_bytes(), before);
  }
}

TEST(DramBytes, FileBackedTableStagesOneBlockPerShardThatMissed) {
  // Memory storage lends blocks in place; a file backend copies each
  // inline miss into its shard's scratch, which is sized on that shard's
  // first miss. Misses on blocks 0, 2 and 4 of a 4-shard table (shards 0
  // and 2, by the striping rule) leave two blocks of scratch.
  constexpr std::uint32_t kVectors = 4096;
  constexpr std::uint32_t kVpb = 32;
  StoreConfig cfg;
  cfg.cache_shards = 4;
  const BlockLayout layout = BlockLayout::identity(kVectors, kVpb);
  std::vector<BlockId> map(layout.num_blocks());
  std::iota(map.begin(), map.end(), BlockId{0});
  TablePolicy policy;
  policy.cache_vectors = 1024;
  policy.policy = PrefetchPolicy::kAll;
  BandanaTable table(cfg, policy, layout, {}, map);
  ASSERT_EQ(table.num_shards(), 4u);
  EXPECT_EQ(table.dram_bytes().staging, 0u);

  const std::string path = ::testing::TempDir() + "/bandana_dram_staging.bin";
  {
    FileBlockStorage storage(path, layout.num_blocks(), cfg.block_bytes);
    const std::vector<VectorId> ids{0, 2 * kVpb + 5, 4 * kVpb + 9};
    std::vector<std::byte> out(ids.size() * cfg.vector_bytes);
    std::vector<BandanaTable::LookupOutcome> outcomes(ids.size());
    table.lookup_get(ids, storage, out, table.begin_batch(), nullptr,
                     outcomes);
    for (const auto& o : outcomes) EXPECT_TRUE(o.nvm_read);
  }
  std::remove(path.c_str());
  EXPECT_EQ(table.dram_bytes().staging, 2 * cfg.block_bytes);
}

TEST(DramBytes, StoreSumsItsTablesAndBackendBuffers) {
  // Two tables: the store's total is its tables' plus its free list and
  // reservations (empty here) plus the backend's own buffers. Memory
  // storage's blocks are the simulated device, not DRAM the store spends;
  // the async file backend counts its wave-buffer pool.
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 2;
  const auto build = [&](Store& store) {
    for (const std::uint32_t n : {4096u, 1000u}) {
      TableWorkloadConfig wl;
      wl.num_vectors = n;
      wl.dim = 32;
      const EmbeddingTable values = TraceGenerator(wl, n).make_embeddings();
      TablePolicy policy;
      policy.cache_vectors = n / 10;
      policy.policy = PrefetchPolicy::kAll;
      store.add_table(values, BlockLayout::identity(n, 32), policy);
    }
  };
  Store store(cfg);
  build(store);
  const DramBytes d = store.dram_bytes();
  DramBytes tables = store.table(0).dram_bytes();
  tables += store.table(1).dram_bytes();
  EXPECT_EQ(d, tables);
  EXPECT_EQ(d.layout, (4096u + 1000u) * 8u);
  EXPECT_EQ(d.slab, (409u + 100u) * 128u);
  EXPECT_EQ(d.storage_buffers, 0u);
  EXPECT_EQ(d.total(), d.slab + d.cache_index + d.shadow_index + d.layout +
                           d.admission + d.block_maps + d.staging +
                           d.retired_states + d.storage_buffers);

  AsyncFileBlockStorage::Options options;
  options.force_thread_pool = true;
  options.wave_buffer_blocks = 8;
  options.wave_buffer_count = 2;
  const std::string path = ::testing::TempDir() + "/bandana_dram_bytes.bin";
  {
    Store file_store(cfg, async_file_storage_factory(path, options));
    build(file_store);
    DramBytes f = file_store.dram_bytes();
    EXPECT_EQ(f.storage_buffers, 2u * 8u * cfg.block_bytes);
    f.storage_buffers = 0;
    EXPECT_EQ(f, d);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bandana
