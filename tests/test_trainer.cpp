#include "core/trainer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/store.h"
#include "trace/paper_workload.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

TEST(Trainer, ProducesUsablePlan) {
  PaperWorkloadOptions opts;
  opts.scale = 0.05;  // tiny tables for test speed
  auto tables = paper_tables(opts);
  tables.resize(3);

  std::vector<TraceGenerator> gens;
  std::vector<Trace> train;
  std::vector<std::uint32_t> sizes;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    gens.emplace_back(tables[i], 100 + i);
    train.push_back(gens.back().generate(2000));
    sizes.push_back(tables[i].num_vectors);
  }

  StoreConfig store_cfg;
  store_cfg.simulate_timing = false;
  TrainerConfig tc;
  tc.total_cache_vectors = 4000;
  tc.alloc_chunk = 256;
  tc.tuner.sampling_rate = 0.05;
  Trainer trainer(store_cfg, tc);
  ThreadPool pool(4);
  const StorePlan plan = trainer.train(train, sizes, &pool);

  ASSERT_EQ(plan.tables.size(), 3u);
  std::uint64_t total_cache = 0;
  for (std::size_t i = 0; i < plan.tables.size(); ++i) {
    const auto& tp = plan.tables[i];
    EXPECT_EQ(tp.layout.num_vectors(), sizes[i]);
    EXPECT_EQ(tp.layout.vectors_per_block(), 32u);
    EXPECT_EQ(tp.access_counts.size(), sizes[i]);
    EXPECT_EQ(tp.policy.policy, PrefetchPolicy::kThreshold);
    EXPECT_GT(tp.policy.cache_vectors, 0u);
    total_cache += tp.policy.cache_vectors;
  }
  // Budget respected up to the per-table minimum floor.
  EXPECT_LE(total_cache, tc.total_cache_vectors + 3 * 1024);

  // The plan boots a working store.
  Store store(store_cfg);
  for (std::size_t i = 0; i < plan.tables.size(); ++i) {
    const EmbeddingTable values = gens[i].make_embeddings();
    store.add_table(values, plan.tables[i].layout, plan.tables[i].policy,
                    plan.tables[i].access_counts);
  }
  std::vector<std::byte> out(128 * 64);
  for (std::size_t i = 0; i < plan.tables.size(); ++i) {
    const Trace eval = gens[i].generate(50);
    for (std::size_t q = 0; q < eval.num_queries(); ++q) {
      if (eval.query(q).size() * 128 > out.size()) continue;
      store.lookup_batch(static_cast<TableId>(i), eval.query(q), out);
    }
    EXPECT_GT(store.table_metrics(static_cast<TableId>(i)).lookups, 0u);
  }
}

TEST(Trainer, AllocatorGivesCacheableTableMore) {
  // Table A reuses heavily; table B is nearly all compulsory misses. The
  // DRAM split must favor A.
  TableWorkloadConfig a, b;
  a.num_vectors = b.num_vectors = 10'000;
  a.new_vector_prob = 0.02;
  a.popularity_skew = 1.0;
  b.new_vector_prob = 0.7;
  b.popularity_skew = 0.1;
  b.profile_frac = 0.1;
  TraceGenerator ga(a, 1), gb(b, 2);
  std::vector<Trace> train;
  train.push_back(ga.generate(4000));
  train.push_back(gb.generate(4000));
  const std::vector<std::uint32_t> sizes{10'000, 10'000};

  StoreConfig sc;
  TrainerConfig tc;
  // Small enough budget that the tables compete for DRAM: the reusable
  // table's marginal hit gain dominates the near-uniform one's.
  tc.total_cache_vectors = 2000;
  tc.alloc_chunk = 250;
  tc.hrc_sampling_rate = 1.0;
  Trainer trainer(sc, tc);
  const StorePlan plan = trainer.train(train, sizes);
  // Table B bottoms out near the 1024-vector floor while A takes most of
  // the contested budget.
  EXPECT_GT(plan.tables[0].policy.cache_vectors,
            1.5 * plan.tables[1].policy.cache_vectors);
}

/// FNV-1a over every table's plan: placement order, access counts, policy
/// fields and the exact bit pattern of the train-set fanout.
std::uint64_t plan_digest(const StorePlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto put = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  };
  const auto put_value = [&put](const auto& v) { put(&v, sizeof v); };
  for (const TablePlan& t : plan.tables) {
    const auto& order = t.layout.order();
    put(order.data(), order.size() * sizeof(order[0]));
    put(t.access_counts.data(),
        t.access_counts.size() * sizeof(t.access_counts[0]));
    put_value(t.policy.cache_vectors);
    put_value(t.policy.policy);
    put_value(t.policy.access_threshold);
    put_value(std::bit_cast<std::uint64_t>(t.policy.insertion_position));
    put_value(std::bit_cast<std::uint64_t>(t.policy.shadow_multiplier));
    put_value(std::bit_cast<std::uint64_t>(t.shp_train_fanout));
  }
  return h;
}

// The 8 paper tables trained together, as the store's set-up trains them.
// The digest was recorded when Trainer partitioned one table after another
// with a per-level parallel_for, so however the tables' refinement is
// scheduled, every thread count must reproduce these plans byte for byte.
TEST(Trainer, EightTablePlanMatchesPinnedDigestAtEveryThreadCount) {
  PaperWorkloadOptions opts;
  opts.scale = 0.02;  // 2,000 to 4,000 vectors per table
  const auto tables = paper_tables(opts);
  std::vector<Trace> train;
  std::vector<std::uint32_t> sizes;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    TraceGenerator gen(tables[i], 500 + i);
    train.push_back(gen.generate(1500));
    sizes.push_back(tables[i].num_vectors);
  }
  StoreConfig store_cfg;
  store_cfg.simulate_timing = false;
  TrainerConfig tc;
  tc.total_cache_vectors = 2000;
  tc.alloc_chunk = 128;
  const Trainer trainer(store_cfg, tc);

  constexpr std::uint64_t kWant = 0x308007ebea3ffe91ULL;
  EXPECT_EQ(plan_digest(trainer.train(train, sizes)), kWant) << "no pool";
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(plan_digest(trainer.train(train, sizes, &pool)), kWant)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace bandana
