#include "core/store_builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

TableWorkloadConfig table_config(std::uint32_t vectors) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = vectors;
  cfg.dim = 32;  // 128 B vectors
  cfg.mean_lookups_per_query = 8;
  cfg.num_profiles = 50;
  return cfg;
}

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

// The builder keeps pointers to the values it queues until build(), so
// passing a temporary must not compile; lvalues still do. (declval<T>() is
// an rvalue for a non-reference T.)
template <typename Values>
concept AddTableAccepts = requires(StoreBuilder& b, TablePlan plan) {
  b.add_table(std::declval<Values>(), std::move(plan));
};
template <typename Tables>
concept AddPlanAccepts = requires(StoreBuilder& b, const StorePlan& plan) {
  b.add_plan(plan, std::declval<Tables>());
};
template <typename Tables>
concept TrainAndAddAccepts =
    requires(StoreBuilder& b, const TrainerConfig& cfg,
             std::span<const Trace> traces) {
      b.train_and_add(cfg, traces, std::declval<Tables>());
    };
static_assert(AddTableAccepts<EmbeddingTable&>);
static_assert(AddTableAccepts<const EmbeddingTable&>);
static_assert(!AddTableAccepts<EmbeddingTable>);
static_assert(AddPlanAccepts<std::vector<EmbeddingTable>&>);
static_assert(AddPlanAccepts<const std::vector<EmbeddingTable>&>);
static_assert(AddPlanAccepts<std::span<const EmbeddingTable>>);
static_assert(!AddPlanAccepts<std::vector<EmbeddingTable>>);
static_assert(TrainAndAddAccepts<std::vector<EmbeddingTable>&>);
static_assert(TrainAndAddAccepts<const std::vector<EmbeddingTable>&>);
static_assert(!TrainAndAddAccepts<std::vector<EmbeddingTable>>);

/// Every vector of every table, served one by one, must round-trip.
void expect_full_roundtrip(Store& store,
                           const std::vector<EmbeddingTable>& values) {
  ASSERT_EQ(store.num_tables(), values.size());
  std::vector<std::byte> out(store.config().vector_bytes);
  for (TableId t = 0; t < values.size(); ++t) {
    for (VectorId v = 0; v < values[t].num_vectors(); ++v) {
      store.lookup(t, v, out);
      ASSERT_TRUE(bytes_match(values[t], v, out))
          << "table " << t << " vector " << v;
    }
  }
}

TEST(StoreBuilder, RoundTripsATrainedPlan) {
  const std::uint32_t sizes[2] = {1024, 2048};
  std::vector<Trace> train;
  std::vector<EmbeddingTable> values;
  for (int i = 0; i < 2; ++i) {
    TraceGenerator gen(table_config(sizes[i]), 11 + i);
    train.push_back(gen.generate(2'000));
    values.push_back(gen.make_embeddings());
  }

  StoreConfig store_cfg;
  store_cfg.simulate_timing = false;
  TrainerConfig trainer_cfg;
  trainer_cfg.total_cache_vectors = 512;
  ThreadPool pool(2);

  // train_and_add runs the whole offline pipeline inside the builder.
  TrainerStats tstats;
  Store store = StoreBuilder(store_cfg)
                    .train_and_add(trainer_cfg, train, values, &pool, &tstats)
                    .build();
  EXPECT_GT(tstats.partition_us, 0.0);
  EXPECT_GT(tstats.peak_training_bytes, 0u);
  expect_full_roundtrip(store, values);

  // An explicit Trainer + add_plan must produce the identical store shape,
  // and from_plan is the same one-shot path.
  Trainer trainer(store_cfg, trainer_cfg);
  const StorePlan plan = trainer.train(train, sizes, &pool);
  std::uint64_t want_blocks = 0;
  for (const auto& t : plan.tables) want_blocks += t.layout.num_blocks();
  EXPECT_EQ(store.storage().num_blocks(), want_blocks);
  Store again = Store::from_plan(store_cfg, plan, values);
  expect_full_roundtrip(again, values);
}

TEST(StoreBuilder, TrainAndAddRejectsMismatchedTraceCount) {
  std::vector<EmbeddingTable> values;
  values.push_back(TraceGenerator(table_config(512), 60).make_embeddings());
  StoreBuilder builder;
  EXPECT_THROW(builder.train_and_add(TrainerConfig{}, {}, values),
               std::invalid_argument);
}

TEST(StoreBuilder, AllocatesStorageExactlyOnce) {
  std::vector<EmbeddingTable> values;
  for (int i = 0; i < 3; ++i) {
    values.push_back(
        TraceGenerator(table_config(512), 20 + i).make_embeddings());
  }
  TablePolicy policy;
  policy.cache_vectors = 32;
  policy.policy = PrefetchPolicy::kNone;

  int builder_calls = 0;
  StoreConfig cfg;
  cfg.simulate_timing = false;
  StoreBuilder builder(cfg);
  builder.storage([&](std::uint64_t blocks, std::size_t block_bytes) {
    ++builder_calls;
    return std::make_unique<MemoryBlockStorage>(blocks, block_bytes);
  });
  for (int i = 0; i < 3; ++i) {
    builder.add_table(values[i], TablePlan{BlockLayout::identity(512, 32),
                                           /*access_counts=*/{}, policy,
                                           /*shp_train_fanout=*/0.0});
  }
  EXPECT_EQ(builder.total_blocks(), 3u * 16u);
  Store built = builder.build();
  EXPECT_EQ(builder_calls, 1);
  expect_full_roundtrip(built, values);

  // The incremental add_table path re-sizes storage on every call — the
  // ceremony the builder removes.
  int incremental_calls = 0;
  Store incremental(cfg, [&](std::uint64_t blocks, std::size_t block_bytes) {
    ++incremental_calls;
    return std::make_unique<MemoryBlockStorage>(blocks, block_bytes);
  });
  for (int i = 0; i < 3; ++i) {
    incremental.add_table(values[i], BlockLayout::identity(512, 32), policy);
  }
  EXPECT_EQ(incremental_calls, 3);
  expect_full_roundtrip(incremental, values);
}

TEST(StoreBuilder, FailedStorageGrowthLeavesStoreServing) {
  std::vector<EmbeddingTable> values;
  for (int i = 0; i < 2; ++i) {
    values.push_back(
        TraceGenerator(table_config(512), 40 + i).make_embeddings());
  }
  TablePolicy policy;
  policy.cache_vectors = 32;
  policy.policy = PrefetchPolicy::kNone;

  StoreConfig cfg;
  cfg.simulate_timing = false;
  int calls = 0;
  Store store(cfg, [&](std::uint64_t blocks, std::size_t block_bytes)
                       -> std::unique_ptr<BlockStorage> {
    if (++calls > 1) throw std::runtime_error("disk full");
    return std::make_unique<MemoryBlockStorage>(blocks, block_bytes);
  });
  store.add_table(values[0], BlockLayout::identity(512, 32), policy);
  EXPECT_THROW(
      store.add_table(values[1], BlockLayout::identity(512, 32), policy),
      std::runtime_error);
  // The failed growth must not have torn down the working storage.
  EXPECT_EQ(store.num_tables(), 1u);
  expect_full_roundtrip(store, {values.begin(), values.begin() + 1});
}

TEST(StoreBuilder, FileStorageBuildsSizedFileAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "/bandana_builder.bin";
  std::vector<EmbeddingTable> values;
  values.push_back(TraceGenerator(table_config(1024), 30).make_embeddings());
  values.push_back(TraceGenerator(table_config(512), 31).make_embeddings());

  StoreConfig cfg;
  cfg.simulate_timing = false;
  StoreBuilder builder(cfg);
  builder.file_storage(path);
  TablePolicy file_policy;
  file_policy.cache_vectors = 64;
  file_policy.policy = PrefetchPolicy::kNone;
  for (const auto& v : values) {
    builder.add_table(
        v, TablePlan{BlockLayout::identity(v.num_vectors(), 32),
                     /*access_counts=*/{}, file_policy,
                     /*shp_train_fanout=*/0.0});
  }
  const std::uint64_t total_blocks = builder.total_blocks();
  Store store = builder.build();
  EXPECT_EQ(std::filesystem::file_size(path),
            total_blocks * cfg.block_bytes);
  expect_full_roundtrip(store, values);
  std::remove(path.c_str());
}

StorePlan one_entry_plan() {
  StorePlan plan;
  plan.tables.push_back(TablePlan{BlockLayout::identity(32, 32),
                                  /*access_counts=*/{}, TablePolicy{},
                                  /*shp_train_fanout=*/0.0});
  return plan;
}

TEST(StoreBuilder, AddPlanRejectsMismatchedValueCount) {
  StoreBuilder builder;
  const std::vector<EmbeddingTable> none;
  EXPECT_THROW(builder.add_plan(one_entry_plan(), none),
               std::invalid_argument);
}

TEST(StoreBuilder, FromPlanRejectsMismatchedValueCount) {
  EXPECT_THROW(Store::from_plan(StoreConfig{}, one_entry_plan(), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bandana
