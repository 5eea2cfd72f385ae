// BandanaTable::lookup_get — one table-get served in one batch.
//
// The batch buckets ids by cache shard, takes each touched shard lock once
// and publishes the table metrics once. The contract is that none of this
// is observable: a lookup_get gives the same bytes, outcomes, counters and
// cache order as lookup() of each id in turn, for every prefetch policy,
// with one shard or several, and with part of the blocks staged (the
// rest read inline, as a lookup whose block the store's staging peek left
// out does). The stress
// test swaps the table's mapping under concurrent gets (the per-id retry
// fallback) and requires every served vector to be wholly old or wholly
// new bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/table.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 1024;
constexpr std::size_t kVecBytes = 128;
constexpr std::size_t kBlockBytes = 4096;
constexpr std::uint32_t kVpb = kBlockBytes / kVecBytes;
constexpr std::uint32_t kBlocks = kVectors / kVpb;

TableWorkloadConfig table_config() {
  TableWorkloadConfig cfg;
  cfg.num_vectors = kVectors;
  cfg.dim = 32;
  cfg.mean_lookups_per_query = 12;
  cfg.num_profiles = 32;
  return cfg;
}

StoreConfig store_config(std::uint32_t shards) {
  StoreConfig cfg;
  cfg.block_bytes = kBlockBytes;
  cfg.vector_bytes = kVecBytes;
  cfg.cache_shards = shards;
  return cfg;
}

TablePolicy policy_of(PrefetchPolicy p) {
  TablePolicy policy;
  policy.cache_vectors = 200;  // well under the table: evictions happen
  policy.policy = p;
  policy.access_threshold = 3;
  return policy;
}

std::vector<std::uint32_t> access_counts(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> counts(kVectors);
  for (auto& c : counts) c = static_cast<std::uint32_t>(rng.next_below(8));
  return counts;
}

/// Write `values` under `layout` to storage blocks [first, first +
/// num_blocks) and return that block map: what Store's write wave does
/// before it registers a new table.
std::vector<BlockId> write_table(const BlockLayout& layout,
                                 const EmbeddingTable& values,
                                 BlockStorage& storage, BlockId first = 0) {
  std::vector<BlockId> map(layout.num_blocks());
  std::vector<std::byte> block(kBlockBytes);
  for (BlockId b = 0; b < layout.num_blocks(); ++b) {
    map[b] = first + b;
    compose_block_bytes(layout, values, b, kVecBytes, block);
    storage.write_block(map[b], block);
  }
  return map;
}

class LookupGetEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, PrefetchPolicy, bool>> {};

TEST_P(LookupGetEquivalence, MatchesPerIdLookups) {
  const auto [shards, prefetch, partly_staged] = GetParam();
  const EmbeddingTable values =
      TraceGenerator(table_config(), 1).make_embeddings();
  const BlockLayout layout = BlockLayout::random(kVectors, kVpb, 5);
  const StoreConfig cfg = store_config(shards);

  // Two identical tables on identical storage: one served per id, one
  // per get.
  MemoryBlockStorage storage_per_id(kBlocks, kBlockBytes);
  MemoryBlockStorage storage_batch(kBlocks, kBlockBytes);
  const std::vector<BlockId> map = write_table(layout, values, storage_per_id);
  write_table(layout, values, storage_batch);
  BandanaTable per_id(cfg, policy_of(prefetch), layout, access_counts(9), map);
  BandanaTable batch(cfg, policy_of(prefetch), layout, access_counts(9), map);
  ASSERT_EQ(per_id.num_shards(), batch.num_shards());
  if (shards > 1) ASSERT_GT(batch.num_shards(), 1u);

  // Staged mode stages every other block: misses on the rest read their
  // block inline, as the store's pipeline does after an evicted peek.
  StagedBlockReads staged;
  if (partly_staged) {
    for (BlockId b = 0; b < kBlocks; b += 2) staged.add(b);
    staged.fetch(storage_batch);
  }
  const StagedBlockReads* stage = partly_staged ? &staged : nullptr;

  const Trace trace = TraceGenerator(table_config(), 2).generate(300);
  std::vector<std::byte> want;
  std::vector<std::byte> got;
  std::vector<BandanaTable::LookupOutcome> outcomes;
  std::uint64_t unstaged = 0;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    want.assign(ids.size() * kVecBytes, std::byte{0});
    got.assign(ids.size() * kVecBytes, std::byte{0});
    outcomes.assign(ids.size(), {});
    const std::uint64_t e1 = per_id.begin_batch();
    const std::uint64_t e2 = batch.begin_batch();
    ASSERT_EQ(e1, e2);
    batch.lookup_get(ids, storage_batch, got, e2, stage, outcomes);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto one = per_id.lookup(
          ids[i], storage_per_id,
          std::span<std::byte>(want).subspan(i * kVecBytes, kVecBytes), e1,
          stage);
      EXPECT_EQ(one.hit, outcomes[i].hit) << "query " << q << " id " << i;
      EXPECT_EQ(one.nvm_read, outcomes[i].nvm_read)
          << "query " << q << " id " << i;
      EXPECT_EQ(one.unstaged, outcomes[i].unstaged)
          << "query " << q << " id " << i;
      if (one.nvm_read) EXPECT_EQ(one.block_read, outcomes[i].block_read);
      if (one.unstaged) ++unstaged;
    }
    ASSERT_EQ(want, got) << "query " << q;
  }
  if (partly_staged) {
    EXPECT_GT(unstaged, 0u);
  } else {
    EXPECT_EQ(unstaged, 0u);
  }
  EXPECT_EQ(per_id.metrics(), batch.metrics());
  EXPECT_EQ(per_id.cache_contents(), batch.cache_contents());
  EXPECT_GT(batch.metrics().lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsPoliciesStaging, LookupGetEquivalence,
    ::testing::Combine(
        ::testing::Values(1u, 4u),
        ::testing::Values(PrefetchPolicy::kNone, PrefetchPolicy::kAll,
                          PrefetchPolicy::kPosition, PrefetchPolicy::kShadow,
                          PrefetchPolicy::kShadowPosition,
                          PrefetchPolicy::kThreshold),
        ::testing::Bool()));

TEST(LookupGet, EmptyGetTouchesNothing) {
  const EmbeddingTable values =
      TraceGenerator(table_config(), 3).make_embeddings();
  MemoryBlockStorage storage(kBlocks, kBlockBytes);
  const BlockLayout layout = BlockLayout::identity(kVectors, kVpb);
  BandanaTable table(store_config(4), policy_of(PrefetchPolicy::kAll), layout,
                     {}, write_table(layout, values, storage));
  table.lookup_get({}, storage, {}, table.begin_batch(), nullptr, {});
  EXPECT_EQ(table.metrics().lookups, 0u);
  EXPECT_TRUE(table.cache_contents().empty());
}

TEST(LookupGet, WarmSwapAdmitsByTheNewCounts) {
  // A swap with the same order and policy keeps the cache warm, but its
  // access counts can differ, and kThreshold admission must follow the new
  // ones: the next fresh read of a block admits a member whose count rose
  // past the threshold and skips one whose count fell below it.
  const EmbeddingTable values =
      TraceGenerator(table_config(), 6).make_embeddings();
  const BlockLayout layout = BlockLayout::random(kVectors, kVpb, 7);
  MemoryBlockStorage storage(kBlocks, kBlockBytes);
  const std::vector<BlockId> map = write_table(layout, values, storage);
  const TablePolicy policy = policy_of(PrefetchPolicy::kThreshold);
  const auto warm = layout.block_members(0);
  const auto fresh = layout.block_members(1);
  const VectorId requested = fresh[0];
  const VectorId rising = fresh[1];
  const VectorId falling = fresh[2];
  std::vector<std::uint32_t> old_counts(kVectors, 0);
  std::vector<std::uint32_t> new_counts(kVectors, 0);
  old_counts[falling] = policy.access_threshold + 5;
  new_counts[rising] = policy.access_threshold + 5;

  BandanaTable table(store_config(1), policy, layout, old_counts, map);
  std::vector<std::byte> out(kVecBytes);
  table.lookup(warm[0], storage, out, table.begin_batch());
  table.swap_state({layout, map, new_counts, policy});
  const auto cached = [&](VectorId v) {
    return std::ranges::count(table.cache_contents(), v) == 1;
  };
  ASSERT_TRUE(cached(warm[0])) << "the swap kept the cache warm";
  ASSERT_FALSE(cached(requested));

  table.lookup(requested, storage, out, table.begin_batch());
  ASSERT_EQ(std::memcmp(out.data(), values.vector_bytes_view(requested).data(),
                        kVecBytes),
            0);
  EXPECT_TRUE(cached(rising));
  EXPECT_FALSE(cached(falling));
  EXPECT_EQ(table.metrics().prefetch_inserted, 1u);
}

TEST(LookupGet, SwapMidGetServesWhollyOldOrNewBytes) {
  // Blocks [0, kBlocks) hold values A under layout LA; blocks
  // [kBlocks, 2 kBlocks) hold values B under layout LB. The main thread
  // flips the table between the two mappings while readers serve
  // multi-shard gets: a get whose shard lock catches a swap falls back to
  // the per-id retry path, and every vector it serves must be exactly A's
  // or exactly B's bytes.
  const EmbeddingTable a = TraceGenerator(table_config(), 4).make_embeddings();
  EmbeddingTable b = a;
  for (VectorId v = 0; v < kVectors; ++v) {
    for (float& x : b.vector(v)) x += 3.0f;
  }
  const BlockLayout la = BlockLayout::random(kVectors, kVpb, 11);
  const BlockLayout lb = BlockLayout::random(kVectors, kVpb, 12);
  const StoreConfig cfg = store_config(4);
  const TablePolicy policy = policy_of(PrefetchPolicy::kAll);
  MemoryBlockStorage storage(2 * kBlocks, kBlockBytes);
  const std::vector<BlockId> map_a = write_table(la, a, storage);
  const std::vector<BlockId> map_b = write_table(lb, b, storage, kBlocks);
  BandanaTable table(cfg, policy, la, {}, map_a);
  ASSERT_GT(table.num_shards(), 1u);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const Trace trace =
          TraceGenerator(table_config(), 100 + r).generate(64);
      std::vector<std::byte> out;
      std::vector<BandanaTable::LookupOutcome> outcomes;
      std::size_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto ids = trace.query(q++ % trace.num_queries());
        out.assign(ids.size() * kVecBytes, std::byte{0});
        outcomes.assign(ids.size(), {});
        table.lookup_get(ids, storage, out, table.begin_batch(), nullptr,
                         outcomes);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::byte* got = out.data() + i * kVecBytes;
          const bool is_a = std::memcmp(got, a.vector_bytes_view(ids[i]).data(),
                                        kVecBytes) == 0;
          const bool is_b = std::memcmp(got, b.vector_bytes_view(ids[i]).data(),
                                        kVecBytes) == 0;
          if (!is_a && !is_b) bad.fetch_add(1, std::memory_order_relaxed);
        }
        served.fetch_add(ids.size(), std::memory_order_relaxed);
      }
    });
  }

  // Swap only once the readers are serving: on a loaded host the 200 swaps
  // could otherwise finish before any reader thread ran.
  while (served.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int cycle = 0; cycle < 200; ++cycle) {
    const bool to_b = cycle % 2 == 0;
    table.swap_state({to_b ? lb : la, to_b ? map_b : map_a, {}, policy});
    if (cycle % 8 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  // The once-per-get publish loses nothing: every served id is counted.
  EXPECT_EQ(table.metrics().lookups, served.load());
  // Readers are gone: reclaim passes free every retired state.
  for (int pass = 0; pass < 3 && table.retired_count() > 0; ++pass) {
    table.reclaim_retired();
  }
  EXPECT_EQ(table.retired_count(), 0u);
}

}  // namespace
}  // namespace bandana
