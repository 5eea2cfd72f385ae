// Soak: serving that runs indefinitely must keep every internal list
// bounded. Smoke-sized — a dozen retrain cycles and a few migration round
// trips — but each cycle asserts the bound, so growth per cycle shows up
// as a failure rather than as a slow leak.
//
// Store part: reader threads serve multi_get while each cycle runs an
// online retrain (pumped to completion) and a re-layout trickle push.
// Retired table states, storage blocks and sampler reservoirs must stay
// flat.
//
// Cluster part: a router reader runs while one table moves back and forth
// between two file-backed nodes with manifests. Storage, retired states
// and the manifests must stay flat: a migrated-out table leaves a
// tombstone of a few bytes, not its whole mapping.
//
// Latency recorders: every long-lived one returns a trivially copyable
// histogram, so it holds no heap memory and cannot grow (checked at
// compile time below).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/rebalance.h"
#include "cluster/router.h"
#include "cluster/store_cluster.h"
#include "core/retrainer.h"
#include "core/store.h"
#include "core/store_builder.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

template <class T>
constexpr bool kFixedSize = std::is_trivially_copyable_v<T>;
static_assert(kFixedSize<decltype(std::declval<Store&>().query_latency_us())>);
static_assert(
    kFixedSize<decltype(std::declval<Store&>().request_latency_us())>);
static_assert(kFixedSize<decltype(std::declval<Store&>().write_latency_us())>);
static_assert(
    kFixedSize<decltype(std::declval<Store&>().migration_latency_us())>);
static_assert(kFixedSize<
              decltype(std::declval<ClusterRouter&>().request_latency_us())>);

constexpr std::uint32_t kVectors = 2048;  // 64 blocks of 32 vectors
constexpr std::uint32_t kVpb = 32;

TableWorkloadConfig table_config() {
  TableWorkloadConfig cfg;
  cfg.num_vectors = kVectors;
  cfg.dim = 32;
  cfg.mean_lookups_per_query = 12;
  cfg.num_profiles = 64;
  return cfg;
}

StoreConfig store_config() {
  StoreConfig cfg;
  cfg.simulate_timing = false;
  return cfg;
}

TablePlan plan_of(std::uint64_t layout_seed) {
  TablePolicy policy;
  policy.cache_vectors = 256;
  policy.policy = PrefetchPolicy::kPosition;
  policy.insertion_position = 0.5;
  return TablePlan{layout_seed == 0
                       ? BlockLayout::identity(kVectors, kVpb)
                       : BlockLayout::random(kVectors, kVpb, layout_seed),
                   {}, policy, 0.0};
}

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 const std::byte* got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got, want.data(), want.size()) == 0;
}

TEST(Soak, RetrainCyclesKeepStoreListsBounded) {
  TraceGenerator gen(table_config(), 11);
  const EmbeddingTable values = gen.make_embeddings();
  StoreBuilder builder(store_config());
  builder.add_table(values, plan_of(0));
  Store store = builder.build();

  RetrainerConfig rc;
  rc.sampler.reservoir_queries = 256;
  rc.trainer.partitioner.shp.iters_per_level = 2;
  rc.republish.blocks_per_interval = 16;
  rc.republish.interval_us = 50'000.0;  // budget well above a retrain's time
  OnlineRetrainer retrainer(
      store, rc, [&](TableId) -> const EmbeddingTable& { return values; });

  // Values never change, so every served byte must match them.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const Trace trace = TraceGenerator(table_config(), 100 + r).generate(200);
      for (std::size_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
        MultiGetRequest req;
        req.add(0, trace.query(q % trace.num_queries()));
        const MultiGetResult res = store.multi_get(req);
        const auto& ids = req.gets[0].ids;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (!bytes_match(values, ids[i],
                           res.vectors[0].data() + i * values.vector_bytes())) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t blocks_after_first_cycle = 0;
  for (std::uint64_t cycle = 1; cycle <= 12; ++cycle) {
    // Let the readers feed the sampler before each retrain.
    const std::uint64_t target = served.load() + 100;
    while (served.load() < target) std::this_thread::yield();
    retrainer.retrain_now();
    while (retrainer.republishing()) {
      if (retrainer.pump() == 0) {
        store.advance_time_us(rc.republish.interval_us);
      }
    }
    TrickleRepublish push = store.begin_trickle_republish(
        0, values, plan_of(cycle), RepublishConfig{});
    while (!push.done()) push.pump();

    EXPECT_LE(store.retired_states(), 4u) << "cycle " << cycle;
    if (cycle == 1) blocks_after_first_cycle = store.storage().num_blocks();
    EXPECT_EQ(store.storage().num_blocks(), blocks_after_first_cycle)
        << "cycle " << cycle;
    EXPECT_LE(retrainer.sampler().reservoir_size(0),
              rc.sampler.reservoir_queries)
        << "cycle " << cycle;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GE(retrainer.stats().swaps, 1u);  // the retrainer really pushed
}

/// Table t lives whole on node t, one replica.
class OneTablePerNode final : public PlacementPolicy {
 public:
  PlacementMap place(const StorePlan& plan,
                     std::span<const EmbeddingTable> tables,
                     const ClusterConfig&) const override {
    PlacementMap pm;
    pm.tables.resize(plan.tables.size());
    for (std::uint32_t t = 0; t < plan.tables.size(); ++t) {
      PlacementMap::Range r;
      r.hi = tables[t].num_vectors();
      r.nodes = {t};
      pm.tables[t].push_back(std::move(r));
    }
    return pm;
  }
  const char* name() const override { return "one-table-per-node"; }
};

struct NodeFiles {
  std::string blocks;
  std::string manifest;
};

NodeFiles node_files(std::uint32_t node) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("bandana_soak_" + std::to_string(::getpid()) + "_n" +
        std::to_string(node)))
          .string();
  return {base + ".bin", base + ".manifest"};
}

void remove_files(const NodeFiles& f) {
  std::remove(f.blocks.c_str());
  std::remove(f.manifest.c_str());
  std::remove((f.manifest + ".tmp").c_str());
}

TEST(Soak, MigrationRoundTripsKeepNodesAndManifestsBounded) {
  const NodeFiles files[2] = {node_files(0), node_files(1)};
  for (const NodeFiles& f : files) remove_files(f);
  StorePlan plan;
  plan.tables = {plan_of(0), plan_of(7)};
  std::vector<EmbeddingTable> values;
  values.push_back(TraceGenerator(table_config(), 1).make_embeddings());
  values.push_back(TraceGenerator(table_config(), 2).make_embeddings());
  ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.replicas = 1;
  ccfg.hot_tables = 0;
  ccfg.store = store_config();
  const OneTablePerNode placement;
  const StoreCluster::NodeSetup setup = [&](std::uint32_t n,
                                            StoreBuilder& b) {
    b.file_storage(files[n].blocks).manifest(files[n].manifest);
  };
  {
    StoreCluster cluster(ccfg, plan, values, nullptr, &placement, setup);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bad{0};
    std::thread reader([&] {
      const Trace trace = TraceGenerator(table_config(), 9).generate(200);
      for (std::size_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
        MultiGetRequest req;
        req.add(0, trace.query(q % trace.num_queries()));
        req.add(1, trace.query((q + 1) % trace.num_queries()));
        const ClusterMultiGetResult got = cluster.router().multi_get(req);
        if (!got.complete()) bad.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t g = 0; g < req.gets.size(); ++g) {
          const auto& get = req.gets[g];
          const EmbeddingTable& v = values[get.table];
          for (std::size_t i = 0; i < get.ids.size(); ++i) {
            if (!bytes_match(v, get.ids[i], got.result.vectors[g].data() +
                                                i * v.vector_bytes())) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });

    const auto manifest_bytes = [&](std::uint32_t n) {
      return std::filesystem::file_size(files[n].manifest);
    };
    constexpr int kRoundTrips = 4;
    std::uint64_t blocks_after_first_move[2] = {0, 0};
    std::uintmax_t manifest_after_first_trip[2] = {0, 0};
    for (int move = 1; move <= 2 * kRoundTrips; ++move) {
      const std::uint32_t from = cluster.placement().tables[0][0].nodes[0];
      RebalanceSession s = cluster.begin_rebalance(0, 0, 0, 1 - from);
      s.run_to_completion();
      ASSERT_EQ(cluster.placement().tables[0][0].nodes[0], 1 - from);
      EXPECT_LE(cluster.retired_states(), 4u) << "move " << move;
      for (std::uint32_t n = 0; n < 2; ++n) {
        // The first move grows the target once; every later install
        // reuses the blocks the previous retire freed.
        const std::uint64_t blocks = cluster.node(n).storage().num_blocks();
        if (move == 1) blocks_after_first_move[n] = blocks;
        EXPECT_EQ(blocks, blocks_after_first_move[n])
            << "node " << n << " move " << move;
        if (move == 2) manifest_after_first_trip[n] = manifest_bytes(n);
      }
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(cluster.placement_flips(), 2u * kRoundTrips);

    // Every later move adds at most a tombstone record to each manifest.
    const std::uintmax_t later_moves = 2 * (kRoundTrips - 1);
    for (std::uint32_t n = 0; n < 2; ++n) {
      EXPECT_LE(manifest_bytes(n),
                manifest_after_first_trip[n] + 256 * later_moves)
          << "node " << n;
    }
  }
  for (const NodeFiles& f : files) remove_files(f);
}

}  // namespace
}  // namespace bandana
