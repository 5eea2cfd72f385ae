#include "core/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "trace/trace_generator.h"

namespace bandana {
namespace {

TableWorkloadConfig table_config() {
  TableWorkloadConfig cfg;
  cfg.num_vectors = 4096;
  cfg.dim = 32;  // 128 B vectors
  cfg.mean_lookups_per_query = 10;
  cfg.num_profiles = 100;
  return cfg;
}

StoreConfig store_config(bool timing = false) {
  StoreConfig cfg;
  cfg.simulate_timing = timing;
  return cfg;
}

/// Returns true if the served bytes equal the embedding values for `v`.
bool bytes_match(const EmbeddingTable& values, VectorId v,
                 std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

class StoreTest : public ::testing::TestWithParam<PrefetchPolicy> {};

TEST_P(StoreTest, ServesCorrectBytesUnderAnyPolicy) {
  TraceGenerator gen(table_config(), 1);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 256;
  policy.policy = GetParam();
  std::vector<std::uint32_t> counts(4096);
  for (VectorId v = 0; v < 4096; ++v) counts[v] = v % 40;  // synthetic stats
  const TableId t = store.add_table(
      values, BlockLayout::random(4096, 32, 9), policy, counts);

  const Trace trace = gen.generate(500);
  std::vector<std::byte> out(128 * 256);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    ASSERT_LE(ids.size() * 128, out.size());
    store.lookup_batch(t, ids, out);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(bytes_match(values, ids[i],
                              {out.data() + i * 128, 128}))
          << "policy " << to_string(GetParam()) << " vector " << ids[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, StoreTest,
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

TEST(Store, MetricsAreConsistent) {
  TraceGenerator gen(table_config(), 2);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 512;
  policy.policy = PrefetchPolicy::kNone;
  const TableId t =
      store.add_table(values, BlockLayout::identity(4096, 32), policy);
  const Trace trace = gen.generate(300);
  std::vector<std::byte> out(128 * 256);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    store.lookup_batch(t, trace.query(q), out);
  }
  const auto& m = store.table_metrics(t);
  EXPECT_EQ(m.lookups, trace.total_lookups());
  EXPECT_LE(m.hits, m.lookups);
  EXPECT_EQ(m.app_bytes_served, m.lookups * 128);
  EXPECT_EQ(m.nvm_bytes_read, m.nvm_block_reads * 4096);
  EXPECT_GT(m.nvm_block_reads, 0u);
  // Batching lets same-query misses share a block read, so the fraction can
  // exceed the naive 128/4096 but never 1.
  EXPECT_GE(m.effective_bandwidth_fraction(), 128.0 / 4096.0 - 1e-9);
  EXPECT_LE(m.effective_bandwidth_fraction(), 1.0);
}

TEST(Store, RepeatLookupHitsCache) {
  TraceGenerator gen(table_config(), 3);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 64;
  const TableId t = store.add_table(values, BlockLayout::identity(4096, 32),
                                    policy, std::vector<std::uint32_t>(4096, 0));
  std::vector<std::byte> out(128);
  store.lookup(t, 7, out);
  const auto before = store.table_metrics(t).nvm_block_reads;
  store.lookup(t, 7, out);
  EXPECT_EQ(store.table_metrics(t).nvm_block_reads, before);
  EXPECT_EQ(store.table_metrics(t).hits, 1u);
}

TEST(Store, MultipleTablesIsolated) {
  TraceGenerator gen(table_config(), 4);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 64;
  policy.policy = PrefetchPolicy::kNone;
  const TableId a = store.add_table(values, BlockLayout::identity(4096, 32), policy);
  const TableId b = store.add_table(values, BlockLayout::random(4096, 32, 5), policy);
  std::vector<std::byte> oa(128), ob(128);
  store.lookup(a, 100, oa);
  store.lookup(b, 100, ob);
  EXPECT_TRUE(bytes_match(values, 100, oa));
  EXPECT_TRUE(bytes_match(values, 100, ob));
  EXPECT_EQ(store.table_metrics(a).lookups, 1u);
  EXPECT_EQ(store.table_metrics(b).lookups, 1u);
  EXPECT_EQ(store.total_metrics().lookups, 2u);
}

TEST(Store, TimingRecordsQueryLatency) {
  TraceGenerator gen(table_config(), 5);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config(/*timing=*/true));
  TablePolicy policy;
  policy.cache_vectors = 64;
  policy.policy = PrefetchPolicy::kNone;
  const TableId t = store.add_table(values, BlockLayout::identity(4096, 32), policy);
  std::vector<std::byte> out(128 * 8);
  const VectorId miss_ids[] = {0, 500, 1000, 1500};
  const double lat = store.lookup_batch(t, miss_ids, out);
  EXPECT_GT(lat, 0.0);  // misses hit NVM
  const double before = store.now_us();
  const VectorId hit_ids[] = {0};
  const double hit_lat = store.lookup_batch(t, hit_ids, out);
  EXPECT_EQ(hit_lat, 0.0);  // pure DRAM hit
  EXPECT_EQ(store.now_us(), before);
  EXPECT_EQ(store.query_latency_us().count(), 2u);
}

TEST(Store, RepublishRefreshesValuesAndCountsEndurance) {
  TraceGenerator gen(table_config(), 6);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 64;
  const TableId t = store.add_table(values, BlockLayout::identity(4096, 32),
                                    policy, std::vector<std::uint32_t>(4096, 0));
  std::vector<std::byte> out(128);
  store.lookup(t, 42, out);  // warm the cache with the old value

  EmbeddingTable updated(4096, 32);
  for (VectorId v = 0; v < 4096; ++v) {
    for (int d = 0; d < 32; ++d) updated.vector(v)[d] = static_cast<float>(v + d);
  }
  const auto writes_before = store.endurance().total_bytes_written();
  store.republish(t, updated, 0.5);
  EXPECT_GT(store.endurance().total_bytes_written(), writes_before);

  store.lookup(t, 42, out);
  EXPECT_TRUE(bytes_match(updated, 42, out));  // stale cache was dropped
}

// Growing storage is host work, not device traffic: the memory backend
// copies its blocks into a bigger heap while a file grows in place, and
// neither may cost simulated time, write waves, batches or endurance. Two
// stores that grow the same way therefore agree across backends.
TEST(Store, StorageGrowthIsNotChargedAsDeviceWrites) {
  TraceGenerator gen(table_config(), 8);
  const EmbeddingTable values = gen.make_embeddings();
  EmbeddingTable updated = values;
  for (VectorId v = 0; v < 4096; ++v) updated.vector(v)[0] += 1.0f;
  TablePolicy policy;
  policy.cache_vectors = 64;
  policy.policy = PrefetchPolicy::kNone;
  const std::uint64_t table_blocks = 4096 / 32;

  struct Charged {
    double now_us = 0.0;
    StoreMetrics metrics;
    std::uint64_t write_latencies = 0;
    std::uint64_t endurance_bytes = 0;
    std::uint64_t storage_blocks = 0;
  };
  // Two tables, no reserve (each add_table grows storage), then one push
  // (which grows it again).
  const auto run = [&](BlockStorageFactory factory) {
    Store store(store_config(/*timing=*/true), std::move(factory));
    store.add_table(values, BlockLayout::identity(4096, 32), policy);
    store.add_table(values, BlockLayout::random(4096, 32, 3), policy);
    store.republish(0, updated);
    return Charged{store.now_us(), store.store_metrics(),
                   store.write_latency_us().count(),
                   store.endurance().total_bytes_written(),
                   store.storage().num_blocks()};
  };
  const std::string path =
      "/tmp/bandana_store_growth_" + std::to_string(::getpid()) + ".bin";
  const Charged mem = run(memory_storage_factory());
  const Charged file = run(file_storage_factory(path));
  std::remove(path.c_str());

  EXPECT_EQ(mem.now_us, file.now_us);
  EXPECT_EQ(mem.metrics.write_waves, file.metrics.write_waves);
  EXPECT_EQ(mem.metrics.write_blocks, file.metrics.write_blocks);
  EXPECT_EQ(mem.metrics.write_batches, file.metrics.write_batches);
  EXPECT_EQ(mem.write_latencies, file.write_latencies);
  EXPECT_EQ(mem.storage_blocks, file.storage_blocks);
  for (const Charged& c : {mem, file}) {
    // Two table writes and one push, every block of each: nothing else.
    EXPECT_EQ(c.metrics.write_waves, 3u);
    EXPECT_EQ(c.metrics.write_blocks, 3 * table_blocks);
    EXPECT_EQ(c.write_latencies, 3u);
    EXPECT_EQ(c.endurance_bytes, c.metrics.write_blocks * 4096);
    EXPECT_EQ(c.storage_blocks, 3 * table_blocks);
  }
}

TEST(Store, RejectsBadGeometry) {
  StoreConfig cfg;
  cfg.vector_bytes = 100;  // does not divide 4096
  EXPECT_THROW(Store{cfg}, std::invalid_argument);
}

TEST(Store, BoundsChecksTableAndSpanInsteadOfUB) {
  TraceGenerator gen(table_config(), 7);
  const EmbeddingTable values = gen.make_embeddings();
  Store store(store_config());
  TablePolicy policy;
  policy.cache_vectors = 64;
  policy.policy = PrefetchPolicy::kNone;
  const TableId t =
      store.add_table(values, BlockLayout::identity(4096, 32), policy);

  std::vector<std::byte> out(128 * 2);
  const VectorId ids[2] = {1, 2};
  // Bad table handle.
  EXPECT_THROW(store.lookup_batch(static_cast<TableId>(5), ids, out),
               std::out_of_range);
  EXPECT_THROW(store.lookup(static_cast<TableId>(5), 0, out),
               std::out_of_range);
  EXPECT_THROW(store.table_metrics(static_cast<TableId>(5)),
               std::out_of_range);
  EXPECT_THROW(store.table(static_cast<TableId>(5)), std::out_of_range);
  EXPECT_THROW(store.republish(static_cast<TableId>(5), values),
               std::out_of_range);
  // Output span too small for the id list.
  std::vector<std::byte> small(128);
  EXPECT_THROW(store.lookup_batch(t, ids, small), std::invalid_argument);
  // Vector id beyond the table.
  const VectorId bad_ids[1] = {4096};
  EXPECT_THROW(store.lookup_batch(t, bad_ids, out), std::out_of_range);
  // Nothing was served by any of the rejected calls.
  EXPECT_EQ(store.table_metrics(t).lookups, 0u);
}

}  // namespace
}  // namespace bandana
