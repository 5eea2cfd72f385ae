// Epoch-based reclamation of retired BandanaTable swap states.
//
// Every completed trickle republish swaps the table's immutable state and
// retires the old one; the reader epochs (common/epoch.h) must free retired
// states once no straggling lookup can still reference them — immediately
// when the store is quiescent, eventually under continuous serving — and
// must never free one a concurrent lookup is still dereferencing (the
// TSan stress below is the teeth of that claim).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/store.h"
#include "core/store_builder.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 512;
constexpr std::size_t kVecBytes = 128;

TableWorkloadConfig table_config() {
  TableWorkloadConfig cfg;
  cfg.num_vectors = kVectors;
  cfg.dim = 32;
  cfg.mean_lookups_per_query = 8;
  cfg.num_profiles = 32;
  return cfg;
}

TablePlan plan_with_layout(std::uint64_t layout_seed) {
  TablePolicy policy;
  policy.cache_vectors = 64;
  policy.policy = PrefetchPolicy::kNone;
  return TablePlan{layout_seed == 0
                       ? BlockLayout::identity(kVectors, 32)
                       : BlockLayout::random(kVectors, 32, layout_seed),
                   {}, policy, 0.0};
}

/// `cache_shards` 0 = one per hardware thread (the config default).
Store one_table_store(const EmbeddingTable& values,
                      std::uint32_t cache_shards = 0) {
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = cache_shards;
  StoreBuilder builder(cfg);
  builder.add_table(values, plan_with_layout(0));
  return builder.build();
}

/// Run one full trickle republish (unlimited rate: one pump per wave).
void run_trickle(Store& store, const EmbeddingTable& values,
                 std::uint64_t layout_seed) {
  RepublishConfig rcfg;  // blocks_per_interval = 0: unlimited
  TrickleRepublish push = store.begin_trickle_republish(
      0, values, plan_with_layout(layout_seed), rcfg);
  int pumps = 0;
  while (!push.done()) {
    push.pump();
    ASSERT_LT(++pumps, 1000);
  }
  ASSERT_TRUE(push.mapping_swapped());
}

TEST(StateReclaim, QuiescentSwapFreesTheRetiredStateImmediately) {
  const EmbeddingTable values = TraceGenerator(table_config(), 1)
                                    .make_embeddings();
  Store store = one_table_store(values);
  EXPECT_EQ(store.retired_states(), 0u);
  // Ten re-layout pushes; with no concurrent readers, each swap's inline
  // reclaim pass frees the retired state before the push returns.
  for (std::uint64_t cycle = 1; cycle <= 10; ++cycle) {
    run_trickle(store, values, cycle);
    EXPECT_EQ(store.retired_states(), 0u) << "cycle " << cycle;
  }
  // The store still serves the right bytes from the latest layout.
  std::vector<std::byte> out(kVecBytes);
  for (VectorId v = 0; v < kVectors; v += 37) {
    store.lookup(0, v, out);
    EXPECT_EQ(std::memcmp(out.data(), values.vector_bytes_view(v).data(),
                          kVecBytes),
              0)
        << "vector " << v;
  }
}

TEST(StateReclaim, ExplicitReclaimPassReportsNothingWhenEmpty) {
  const EmbeddingTable values = TraceGenerator(table_config(), 2)
                                    .make_embeddings();
  Store store = one_table_store(values);
  EXPECT_EQ(store.reclaim_retired_states(), 0u);
}

/// Cache shard count of the stress below: one shard serializes every
/// lookup of the table on one lock, one per hardware thread lets them run
/// in parallel.
class StateReclaimStress : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StateReclaimStress, ConcurrentServingSwapAndReclaimStress) {
  // The TSan target: reader threads hammer lookups while the main thread
  // swaps the table's state over and over (alternating value sets A/B and
  // re-randomized layouts) and a third party forces reclaim passes. Every
  // served vector must be bit-exact A bytes or bit-exact B bytes — a
  // lookup that raced a swap reads one consistent state, never a freed
  // one, never a mix.
  const EmbeddingTable a = TraceGenerator(table_config(), 3).make_embeddings();
  EmbeddingTable b = a;
  for (VectorId v = 0; v < kVectors; ++v) {
    for (float& x : b.vector(v)) x += 7.0f;
  }
  Store store = one_table_store(a, GetParam());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      TraceGenerator gen(table_config(), 100 + r);
      const Trace trace = gen.generate(50);
      std::vector<std::byte> out(kVecBytes * kVectors);
      std::size_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto ids = trace.query(q++ % trace.num_queries());
        store.lookup_batch(0, ids, out);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::byte* got = out.data() + i * kVecBytes;
          const bool is_a =
              std::memcmp(got, a.vector_bytes_view(ids[i]).data(),
                          kVecBytes) == 0;
          const bool is_b =
              std::memcmp(got, b.vector_bytes_view(ids[i]).data(),
                          kVecBytes) == 0;
          if (!is_a && !is_b) bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (std::uint64_t cycle = 1; cycle <= 12; ++cycle) {
    const EmbeddingTable& next = (cycle % 2 == 1) ? b : a;
    RepublishConfig rcfg;
    TrickleRepublish push =
        store.begin_trickle_republish(0, next, plan_with_layout(cycle), rcfg);
    while (!push.done()) push.pump();
    store.reclaim_retired_states();
    // Bounded garbage: under continuous reads each pass may leave the
    // freshest retiree waiting for its bank to drain, never a pile.
    EXPECT_LE(store.retired_states(), 4u) << "cycle " << cycle;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);

  // Readers are gone: one pass (both banks provably empty) frees every
  // straggler.
  std::size_t left = store.retired_states();
  for (int pass = 0; pass < 3 && left > 0; ++pass) {
    store.reclaim_retired_states();
    left = store.retired_states();
  }
  EXPECT_EQ(left, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CacheShards, StateReclaimStress,
    ::testing::Values(1u, std::max(1u, std::thread::hardware_concurrency())),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
      return info.index == 0 ? std::string("OneShard")
                             : std::string("HardwareThreads");
    });

}  // namespace
}  // namespace bandana
