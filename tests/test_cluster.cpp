// Distributed serving tier: StoreCluster + ClusterRouter.
//
// The identity contract anchors everything: a 1-node, 1-replica cluster
// must be bit-equivalent to a bare Store built from the same plan and
// seed — same bytes, same metrics counters, same latencies. The rest of
// the suite exercises what the cluster adds on top: deterministic
// placement, range splits, replica read balancing, down-node failover
// with partial-failure accounting, per-owning-node block-read dedup,
// degraded-node latency inflation, async scatter-gather, and republish
// fan-out to every replica.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/store_cluster.h"
#include "core/store_builder.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::size_t kVecBytes = 128;  // dim 32 x fp32

TableWorkloadConfig table_config(std::uint32_t vectors = 2048) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = vectors;
  cfg.dim = 32;
  cfg.mean_lookups_per_query = 10;
  cfg.num_profiles = 64;
  return cfg;
}

StoreConfig store_config(bool timing = false) {
  StoreConfig cfg;
  cfg.simulate_timing = timing;
  cfg.cache_shards = 1;  // deterministic LRU order for identity checks
  return cfg;
}

TablePlan simple_plan(std::uint32_t vectors, std::uint64_t cache_vectors,
                      std::uint64_t layout_seed) {
  TablePolicy policy;
  policy.cache_vectors = cache_vectors;
  policy.policy = PrefetchPolicy::kNone;
  return TablePlan{layout_seed == 0
                       ? BlockLayout::identity(vectors, 32)
                       : BlockLayout::random(vectors, 32, layout_seed),
                   /*access_counts=*/{}, policy, /*shp_train_fanout=*/0.0};
}

/// Two 2048-vector tables with distinct value sets and layouts.
struct Model {
  StorePlan plan;
  std::vector<EmbeddingTable> values;
};

Model two_table_model(std::uint64_t cache_vectors = 256) {
  Model m;
  m.values.push_back(TraceGenerator(table_config(), 1).make_embeddings());
  m.values.push_back(TraceGenerator(table_config(), 2).make_embeddings());
  m.plan.tables.push_back(simple_plan(2048, cache_vectors, 0));
  m.plan.tables.push_back(simple_plan(2048, cache_vectors, 7));
  return m;
}

ClusterConfig cluster_config(std::uint32_t nodes, std::uint32_t replicas,
                             std::uint32_t hot_tables, bool timing = false) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replicas = replicas;
  cfg.hot_tables = hot_tables;
  cfg.store = store_config(timing);
  return cfg;
}

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 const std::byte* got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got, want.data(), want.size()) == 0;
}

void expect_table_metrics_eq(const TableMetrics& a, const TableMetrics& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.nvm_block_reads, b.nvm_block_reads);
  EXPECT_EQ(a.prefetch_inserted, b.prefetch_inserted);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.nvm_bytes_read, b.nvm_bytes_read);
  EXPECT_EQ(a.miss_bytes, b.miss_bytes);
  EXPECT_EQ(a.app_bytes_served, b.app_bytes_served);
  EXPECT_EQ(a.republish_writes, b.republish_writes);
}

void expect_store_metrics_eq(const StoreMetrics& a, const StoreMetrics& b) {
  EXPECT_EQ(a.staged_blocks, b.staged_blocks);
  EXPECT_EQ(a.stage_truncated_blocks, b.stage_truncated_blocks);
  EXPECT_EQ(a.deferred_lookups, b.deferred_lookups);
  EXPECT_EQ(a.retry_blocks, b.retry_blocks);
  EXPECT_EQ(a.retry_waves, b.retry_waves);
  EXPECT_EQ(a.write_waves, b.write_waves);
  EXPECT_EQ(a.write_blocks, b.write_blocks);
  EXPECT_EQ(a.republish_skipped_blocks, b.republish_skipped_blocks);
  EXPECT_EQ(a.mapping_swaps, b.mapping_swaps);
}

/// Fault-injection shim for the serving path: delegates to memory storage
/// but throws on reads while armed (a dying device mid-sub-request).
/// Writes always succeed so publish/setup work.
class ThrowingReadStorage final : public BlockStorage {
 public:
  ThrowingReadStorage(std::uint64_t blocks, std::size_t bytes,
                      std::shared_ptr<std::atomic<bool>> armed)
      : inner_(blocks, bytes), armed_(std::move(armed)) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    if (armed_->load()) throw std::runtime_error("injected read fault");
    inner_.read_block(b, out);
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    if (armed_->load()) throw std::runtime_error("injected read fault");
    inner_.read_blocks(ops);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_.write_block(b, in);
  }

 private:
  MemoryBlockStorage inner_;
  std::shared_ptr<std::atomic<bool>> armed_;
};

// --- The identity contract -------------------------------------------------

TEST(StoreCluster, OneNodeOneReplicaIsBitEquivalentToBareStore) {
  const Model m = two_table_model();
  StoreBuilder builder(store_config(/*timing=*/true));
  builder.seed(42);
  builder.add_table(m.values[0], m.plan.tables[0]);
  builder.add_table(m.values[1], m.plan.tables[1]);
  Store bare = builder.build();

  ClusterConfig ccfg = cluster_config(1, 1, 0, /*timing=*/true);
  ccfg.seed = 42;
  StoreCluster cluster(ccfg, m.plan, m.values);

  TraceGenerator gen(table_config(), 9);
  const Trace trace = gen.generate(150);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q)).add(1, trace.query(q));
    const MultiGetResult want = bare.multi_get(req);
    const ClusterMultiGetResult got = cluster.router().multi_get(req);
    ASSERT_EQ(got.result.vectors, want.vectors) << "request " << q;
    ASSERT_EQ(got.result.block_reads, want.block_reads) << "request " << q;
    ASSERT_DOUBLE_EQ(got.result.service_latency_us, want.service_latency_us)
        << "request " << q;
    ASSERT_EQ(got.sub_requests, 1u);
    EXPECT_TRUE(got.complete());
    for (std::size_t g = 0; g < 2; ++g) {
      EXPECT_EQ(got.result.per_table[g].hits, want.per_table[g].hits);
      EXPECT_EQ(got.result.per_table[g].misses, want.per_table[g].misses);
      EXPECT_EQ(got.result.per_table[g].block_reads,
                want.per_table[g].block_reads);
    }
    // Both clocks pace the same arrivals.
    bare.advance_time_us(50.0);
    cluster.advance_time_us(50.0);
  }

  const ClusterMetrics cm = cluster.metrics();
  expect_table_metrics_eq(cm.tables, bare.total_metrics());
  expect_store_metrics_eq(cm.store, bare.store_metrics());
  expect_table_metrics_eq(cluster.table_metrics(0), bare.table_metrics(0));
  EXPECT_EQ(cm.router.requests, trace.num_queries());
  EXPECT_EQ(cm.router.sub_requests, trace.num_queries());
  EXPECT_EQ(cm.router.failed_sub_requests, 0u);
  EXPECT_EQ(cm.router.failovers, 0u);

  const LatencyRecorder cluster_lat = cluster.router().request_latency_us();
  const LatencyRecorder bare_lat = bare.request_latency_us();
  EXPECT_EQ(cluster_lat.count(), bare_lat.count());
  EXPECT_DOUBLE_EQ(cluster_lat.mean(), bare_lat.mean());
  EXPECT_DOUBLE_EQ(cluster_lat.max(), bare_lat.max());
}

// --- Placement -------------------------------------------------------------

TEST(Placement, SameSeedAndConfigYieldsIdenticalMap) {
  const Model m = two_table_model();
  for (const PlacementKind kind :
       {PlacementKind::kHash, PlacementKind::kPlanAware}) {
    ClusterConfig ccfg = cluster_config(4, 2, 1);
    ccfg.placement = kind;
    ccfg.split_min_vectors = 1024;  // the 2048-vector tables split
    StoreCluster a(ccfg, m.plan, m.values);
    StoreCluster b(ccfg, m.plan, m.values);
    EXPECT_EQ(a.placement(), b.placement())
        << "placement kind " << static_cast<int>(kind);
  }
}

TEST(Placement, DifferentSeedsMovePrimaries) {
  // Not a strict requirement per table, but across 16 tables two seeds
  // agreeing everywhere would mean the seed is ignored.
  StorePlan plan;
  std::vector<EmbeddingTable> values;
  for (int t = 0; t < 16; ++t) {
    values.push_back(
        TraceGenerator(table_config(128), 100 + t).make_embeddings());
    plan.tables.push_back(simple_plan(128, 0, 0));
  }
  ClusterConfig a_cfg = cluster_config(5, 1, 0);
  ClusterConfig b_cfg = a_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  StoreCluster a(a_cfg, plan, values);
  StoreCluster b(b_cfg, plan, values);
  EXPECT_NE(a.placement(), b.placement());
}

TEST(Placement, PlanAwareSplitsHugeTablesAcrossAllNodes) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(3, 1, 0);
  ccfg.placement = PlacementKind::kPlanAware;
  ccfg.split_min_vectors = 256;
  StoreCluster cluster(ccfg, m.plan, m.values);
  for (TableId t = 0; t < 2; ++t) {
    const auto& ranges = cluster.placement().tables[t];
    ASSERT_EQ(ranges.size(), 3u);
    VectorId expect_lo = 0;
    std::vector<bool> node_seen(3, false);
    for (const auto& r : ranges) {
      EXPECT_EQ(r.lo, expect_lo);  // contiguous, gap-free
      expect_lo = r.hi;
      ASSERT_EQ(r.nodes.size(), 1u);
      node_seen[r.nodes[0]] = true;
    }
    EXPECT_EQ(expect_lo, 2048u);
    EXPECT_TRUE(node_seen[0] && node_seen[1] && node_seen[2]);
  }
}

TEST(StoreCluster, RangeSplitClusterServesIdenticalBytes) {
  const Model m = two_table_model();
  StoreBuilder builder(store_config());
  builder.seed(42);
  builder.add_table(m.values[0], m.plan.tables[0]);
  builder.add_table(m.values[1], m.plan.tables[1]);
  Store bare = builder.build();

  ClusterConfig ccfg = cluster_config(3, 1, 0);
  ccfg.placement = PlacementKind::kPlanAware;
  ccfg.split_min_vectors = 256;
  StoreCluster cluster(ccfg, m.plan, m.values);

  TraceGenerator gen(table_config(), 11);
  const Trace trace = gen.generate(150);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q)).add(1, trace.query(q));
    const MultiGetResult want = bare.multi_get(req);
    const ClusterMultiGetResult got = cluster.router().multi_get(req);
    // Caching and block geometry differ across the split — the bytes, the
    // result shape, and the loss-free accounting must not.
    ASSERT_EQ(got.result.vectors, want.vectors) << "request " << q;
    EXPECT_TRUE(got.complete());
    EXPECT_LE(got.sub_requests, 3u);
  }
  const ClusterMetrics cm = cluster.metrics();
  EXPECT_EQ(cm.tables.lookups, bare.total_metrics().lookups);
  EXPECT_EQ(cm.router.failed_lookups, 0u);
}

// --- Replication and read balancing ---------------------------------------

TEST(StoreCluster, ReplicaReadBalancingIsWithinTolerance) {
  for (const ReadBalance rb :
       {ReadBalance::kRoundRobin, ReadBalance::kLeastOutstanding}) {
    const Model m = two_table_model();
    ClusterConfig ccfg = cluster_config(2, 2, 2);
    ccfg.read_balance = rb;
    StoreCluster cluster(ccfg, m.plan, m.values);
    // Both tables are hot: every range is on both nodes.
    for (TableId t = 0; t < 2; ++t) {
      ASSERT_EQ(cluster.placement().tables[t][0].nodes.size(), 2u);
    }

    const std::size_t kRequests = 200;
    const std::vector<VectorId> ids = {1, 2, 3, 4};
    for (std::size_t q = 0; q < kRequests; ++q) {
      MultiGetRequest req;
      req.add(0, ids);
      const ClusterMultiGetResult res = cluster.router().multi_get(req);
      EXPECT_TRUE(res.complete());
    }
    const std::uint64_t a = cluster.node(0).total_metrics().lookups;
    const std::uint64_t b = cluster.node(1).total_metrics().lookups;
    const std::uint64_t total = a + b;
    EXPECT_EQ(total, kRequests * ids.size());
    // Both balancers must split an idle-cluster stream near 50/50.
    EXPECT_LE(std::llabs(static_cast<long long>(a) -
                         static_cast<long long>(b)),
              static_cast<long long>(total / 10))
        << "balance " << static_cast<int>(rb) << ": " << a << " vs " << b;
  }
}

TEST(StoreCluster, DownNodeKeepsServingReplicatedTables) {
  const Model m = two_table_model();
  // Table 0 is the popularity head (hot_table_flags tie-break: lowest id);
  // table 1 stays single-copy.
  ClusterConfig ccfg = cluster_config(2, 2, 1);
  StoreCluster cluster(ccfg, m.plan, m.values);
  ASSERT_EQ(cluster.placement().tables[0][0].nodes.size(), 2u);
  ASSERT_EQ(cluster.placement().tables[1][0].nodes.size(), 1u);
  const std::uint32_t lone_node = cluster.placement().tables[1][0].nodes[0];

  cluster.set_node_down(lone_node, true);
  EXPECT_TRUE(cluster.node_down(lone_node));

  TraceGenerator gen(table_config(), 13);
  const Trace trace = gen.generate(100);
  std::uint64_t lost_ids = 0, lost_groups = 0;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    MultiGetRequest req;
    req.add(0, ids).add(1, ids);
    const ClusterMultiGetResult res = cluster.router().multi_get(req);
    // The replicated table survives: every one of its ids carries real
    // bytes, served from the alive replica.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(bytes_match(m.values[0], ids[i],
                              res.result.vectors[0].data() + i * kVecBytes))
          << "request " << q << " id " << ids[i];
    }
    // The single-copy table is lost — one failed sub-request group, every
    // id zero-filled and accounted.
    EXPECT_EQ(res.failed_sub_requests, 1u);
    EXPECT_EQ(res.failed_lookups, ids.size());
    EXPECT_FALSE(res.complete());
    lost_ids += ids.size();
    ++lost_groups;
    const std::vector<std::byte> zeros(ids.size() * kVecBytes, std::byte{0});
    EXPECT_EQ(res.result.vectors[1], zeros);
    EXPECT_EQ(res.result.per_table[1].hits, 0u);
    EXPECT_EQ(res.result.per_table[1].misses, ids.size());
  }
  const RouterMetrics rm = cluster.router().metrics();
  EXPECT_EQ(rm.failed_sub_requests, lost_groups);
  EXPECT_EQ(rm.failed_lookups, lost_ids);
  // Whenever the balancer preferred the down node for table 0, it failed
  // over; over 100 alternating requests that must have happened.
  EXPECT_GT(rm.failovers, 0u);
  // The down node was never dispatched to.
  EXPECT_EQ(cluster.node(lone_node).total_metrics().lookups, 0u);

  // Recovery: mark the node back up and everything serves again.
  cluster.set_node_down(lone_node, false);
  MultiGetRequest req;
  req.add(1, std::vector<VectorId>{5, 6, 7});
  const ClusterMultiGetResult res = cluster.router().multi_get(req);
  EXPECT_TRUE(res.complete());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(bytes_match(m.values[1], static_cast<VectorId>(5 + i),
                            res.result.vectors[0].data() + i * kVecBytes));
  }
}

TEST(StoreCluster, AllReplicasDownZeroFillsAndRecovers) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(2, 2, 2);
  StoreCluster cluster(ccfg, m.plan, m.values);
  cluster.set_node_down(0, true);
  cluster.set_node_down(1, true);
  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{1, 2});
  const ClusterMultiGetResult res = cluster.router().multi_get(req);
  EXPECT_EQ(res.sub_requests, 0u);
  EXPECT_EQ(res.failed_sub_requests, 1u);
  EXPECT_EQ(res.failed_lookups, 2u);
  EXPECT_EQ(res.result.vectors[0],
            std::vector<std::byte>(2 * kVecBytes, std::byte{0}));
  cluster.set_node_down(0, false);
  EXPECT_TRUE(cluster.router().multi_get(req).complete());
}

// --- Scatter-gather details ------------------------------------------------

TEST(StoreCluster, ScatterPreservesPerNodeBlockReadDedup) {
  // Regression: a key (block) appearing in two id lists of one request
  // must be fetched once per OWNING NODE — the router must route both
  // lists into the one sub-request where the node-local request-wide
  // dedup can see them.
  const Model m = two_table_model();
  StorePlan plan;
  plan.tables.push_back(simple_plan(2048, /*cache_vectors=*/1, 0));
  ClusterConfig ccfg = cluster_config(2, 1, 0);
  StoreCluster cluster(ccfg, plan, std::span(m.values.data(), 1));

  // Identity layout, 32 vectors per block: all four ids live in block 0.
  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{0, 1}).add(0, std::vector<VectorId>{2, 3});
  const ClusterMultiGetResult res = cluster.router().multi_get(req);
  EXPECT_EQ(res.sub_requests, 1u);  // one owning node, one sub-request
  EXPECT_EQ(res.result.block_reads, 1u);
  EXPECT_EQ(cluster.table_metrics(0).nvm_block_reads, 1u);
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(bytes_match(m.values[0],
                              static_cast<VectorId>(g * 2 + i),
                              res.result.vectors[g].data() + i * kVecBytes));
    }
  }
}

TEST(StoreCluster, DegradedNodeInflatesMergedLatency) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(1, 1, 0, /*timing=*/true);
  StoreCluster healthy(ccfg, m.plan, m.values);
  StoreCluster degraded(ccfg, m.plan, m.values);
  degraded.set_node_degraded(0, 4.0);
  EXPECT_DOUBLE_EQ(degraded.node_degrade(0), 4.0);

  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{0, 100, 500});
  const double base = healthy.router().multi_get(req).result.service_latency_us;
  const double slow = degraded.router().multi_get(req).result.service_latency_us;
  EXPECT_GT(base, 0.0);  // cold store: all misses
  EXPECT_DOUBLE_EQ(slow, 4.0 * base);

  EXPECT_THROW(degraded.set_node_degraded(0, 0.5), std::invalid_argument);
}

TEST(StoreCluster, ValidatesBeforeServing) {
  const Model m = two_table_model();
  StoreCluster cluster(cluster_config(2, 1, 0), m.plan, m.values);
  MultiGetRequest bad_table;
  bad_table.add(9, std::vector<VectorId>{0});
  EXPECT_THROW(cluster.router().multi_get(bad_table), std::out_of_range);
  MultiGetRequest bad_vector;
  bad_vector.add(0, std::vector<VectorId>{99'999});
  EXPECT_THROW(cluster.router().multi_get(bad_vector), std::out_of_range);
  const RouterMetrics rm = cluster.router().metrics();
  EXPECT_EQ(rm.requests, 0u);
  EXPECT_EQ(rm.sub_requests, 0u);

  const ClusterMultiGetResult res =
      cluster.router().multi_get(MultiGetRequest{});
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.sub_requests, 0u);
}

TEST(StoreCluster, AsyncScatterGatherMatchesSyncBytes) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(3, 2, 2);
  ccfg.placement = PlacementKind::kPlanAware;
  ccfg.split_min_vectors = 256;
  StoreCluster sync_cluster(ccfg, m.plan, m.values);
  StoreCluster async_cluster(ccfg, m.plan, m.values);
  ThreadPool pool(4);

  TraceGenerator gen(table_config(), 17);
  const Trace trace = gen.generate(200);
  std::vector<std::future<ClusterMultiGetResult>> futures;
  std::vector<MultiGetResult> want;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q)).add(1, trace.query(q));
    want.push_back(sync_cluster.router().multi_get(req).result);
    futures.push_back(async_cluster.router().multi_get_async(req, pool));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const ClusterMultiGetResult res = futures[q].get();
    // Scheduling order may change hit/miss splits, never the bytes.
    EXPECT_EQ(res.result.vectors, want[q].vectors) << "request " << q;
    EXPECT_TRUE(res.complete());
  }
  const ClusterMetrics cm = async_cluster.metrics();
  EXPECT_EQ(cm.router.requests, trace.num_queries());
  EXPECT_EQ(cm.tables.lookups,
            sync_cluster.metrics().tables.lookups);

  MultiGetRequest bad;
  bad.add(42, std::vector<VectorId>{0});
  EXPECT_THROW(async_cluster.router().multi_get_async(bad, pool),
               std::out_of_range);
}

TEST(StoreCluster, AsyncRejectsBadRequestsInline) {
  // Validation stays on the submitting thread: a bad table or vector id
  // throws from multi_get_async itself, before any replica is picked, any
  // node is marked outstanding or any counter moves.
  const Model m = two_table_model();
  StoreCluster cluster(cluster_config(3, 2, 2), m.plan, m.values);
  ThreadPool pool(2);
  MultiGetRequest bad_table;
  bad_table.add(0, std::vector<VectorId>{1, 2}).add(9, std::vector<VectorId>{0});
  EXPECT_THROW(cluster.router().multi_get_async(bad_table, pool),
               std::out_of_range);
  MultiGetRequest bad_vector;
  bad_vector.add(0, std::vector<VectorId>{1})
      .add(1, std::vector<VectorId>{3, 99'999});
  EXPECT_THROW(cluster.router().multi_get_async(bad_vector, pool),
               std::out_of_range);
  pool.wait_idle();
  const RouterMetrics rm = cluster.router().metrics();
  EXPECT_EQ(rm.requests, 0u);
  EXPECT_EQ(rm.sub_requests, 0u);
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node_outstanding(n), 0u) << "node " << n;
    EXPECT_EQ(cluster.node(n).total_metrics().lookups, 0u) << "node " << n;
  }
}

TEST(StoreCluster, SequentialAsyncPicksTheSyncReplicas) {
  // Replica choice happens on the submitting thread in submission order,
  // so requests submitted one after another rotate exactly like the same
  // requests served synchronously: every node serves the same lookups,
  // and the router counts the same sub-requests.
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(3, 2, 2);
  ccfg.placement = PlacementKind::kPlanAware;
  ccfg.split_min_vectors = 256;
  StoreCluster sync_cluster(ccfg, m.plan, m.values);
  StoreCluster async_cluster(ccfg, m.plan, m.values);
  ThreadPool pool(4);

  const Trace trace = TraceGenerator(table_config(), 23).generate(150);
  std::vector<std::future<ClusterMultiGetResult>> futures;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q)).add(1, trace.query(q));
    sync_cluster.router().multi_get(req);
    futures.push_back(async_cluster.router().multi_get_async(req, pool));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().complete());

  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(async_cluster.node(n).total_metrics().lookups,
              sync_cluster.node(n).total_metrics().lookups)
        << "node " << n;
    EXPECT_EQ(async_cluster.node_outstanding(n), 0u) << "node " << n;
  }
  const RouterMetrics want = sync_cluster.router().metrics();
  const RouterMetrics got = async_cluster.router().metrics();
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.sub_requests, want.sub_requests);
  EXPECT_EQ(got.failed_sub_requests, want.failed_sub_requests);
  EXPECT_EQ(got.failovers, want.failovers);
  // The split tables really do spread over several nodes.
  std::uint32_t serving = 0;
  for (std::uint32_t n = 0; n < 3; ++n) {
    if (sync_cluster.node(n).total_metrics().lookups > 0) ++serving;
  }
  EXPECT_GT(serving, 1u);
}

TEST(StoreCluster, AsyncServesUnderConcurrentFaultFlips) {
  // TSan target: async scatter-gather racing fault injection. Bytes must
  // stay correct for every id that was actually served; the loss
  // accounting must stay internally consistent.
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(3, 2, 2);
  StoreCluster cluster(ccfg, m.plan, m.values);
  ThreadPool pool(4);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    std::uint32_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cluster.set_node_down(n % 3, (n / 3) % 2 == 0);
      cluster.set_node_degraded(n % 3, 1.0 + (n % 4));
      ++n;
      std::this_thread::yield();
    }
    for (std::uint32_t k = 0; k < 3; ++k) cluster.set_node_down(k, false);
  });

  TraceGenerator gen(table_config(), 19);
  const Trace trace = gen.generate(300);
  std::vector<std::future<ClusterMultiGetResult>> futures;
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q)).add(1, trace.query(q));
    futures.push_back(cluster.router().multi_get_async(std::move(req), pool));
  }
  std::uint64_t lost = 0;
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const ClusterMultiGetResult res = futures[q].get();
    const auto ids = trace.query(q);
    lost += res.failed_lookups;
    for (int t = 0; t < 2; ++t) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::byte* got = res.result.vectors[t].data() + i * kVecBytes;
        const std::vector<std::byte> zeros(kVecBytes, std::byte{0});
        if (std::memcmp(got, zeros.data(), kVecBytes) != 0) {
          ASSERT_TRUE(bytes_match(m.values[t], ids[i], got))
              << "request " << q << " table " << t << " id " << ids[i];
        }
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  EXPECT_EQ(cluster.router().metrics().failed_lookups, lost);
}

TEST(StoreCluster, FailedSubRequestReleasesOutstandingCount) {
  // Regression: the kLeastOutstanding balancer counts in-flight
  // sub-requests per node. A sub-request that THROWS (dying device) must
  // decrement on that path too — a leaked count permanently biases the
  // balancer away from the node after it recovers.
  const Model m = two_table_model(/*cache_vectors=*/1);
  ClusterConfig ccfg = cluster_config(2, 2, 2);
  ccfg.read_balance = ReadBalance::kLeastOutstanding;
  const auto armed = std::make_shared<std::atomic<bool>>(false);
  StoreCluster cluster(
      ccfg, m.plan, m.values, nullptr, nullptr,
      [&](std::uint32_t n, StoreBuilder& b) {
        if (n != 0) return;
        b.storage([armed](std::uint64_t blocks, std::size_t bytes) {
          return std::make_unique<ThrowingReadStorage>(blocks, bytes, armed);
        });
      });
  ASSERT_EQ(cluster.placement().tables[0][0].nodes.size(), 2u);

  armed->store(true);
  std::size_t faults = 0;
  for (std::size_t q = 0; q < 40; ++q) {
    // Fresh ids every request: the tiny cache guarantees storage reads, so
    // whichever request routes to node 0 hits the injected fault.
    const VectorId base = static_cast<VectorId>((q * 4) % 2040);
    MultiGetRequest req;
    req.add(0, std::vector<VectorId>{base, base + 1, base + 2, base + 3});
    try {
      cluster.router().multi_get(req);
    } catch (const std::runtime_error&) {
      ++faults;
    }
    // Every completion path — success or throw — returned its slot.
    ASSERT_EQ(cluster.node_outstanding(0), 0u) << "request " << q;
    ASSERT_EQ(cluster.node_outstanding(1), 0u) << "request " << q;
  }
  ASSERT_GT(faults, 0u);  // the balancer did route to the faulty node

  // Recovery: with the fault disarmed the balancer must still split the
  // stream near 50/50 — a leaked count would starve node 0 forever.
  armed->store(false);
  const std::uint64_t before_a = cluster.node(0).total_metrics().lookups;
  const std::uint64_t before_b = cluster.node(1).total_metrics().lookups;
  const std::size_t kRequests = 200;
  for (std::size_t q = 0; q < kRequests; ++q) {
    MultiGetRequest req;
    req.add(0, std::vector<VectorId>{1, 2, 3, 4});
    EXPECT_TRUE(cluster.router().multi_get(req).complete());
  }
  const std::uint64_t a = cluster.node(0).total_metrics().lookups - before_a;
  const std::uint64_t b = cluster.node(1).total_metrics().lookups - before_b;
  EXPECT_EQ(a + b, kRequests * 4);
  EXPECT_LE(std::llabs(static_cast<long long>(a) -
                       static_cast<long long>(b)),
            static_cast<long long>((a + b) / 10))
      << a << " vs " << b;
}

// --- Node seed derivation --------------------------------------------------

TEST(ClusterNodeSeed, AvoidsAdjacentSeedAliasingAndKeepsIdentityContract) {
  // Node 0 keeps the raw seed — that is what makes a 1-node cluster
  // bit-identical to a bare Store with cfg.seed (the identity test above).
  EXPECT_EQ(cluster_node_seed(42, 0), 42u);
  EXPECT_EQ(cluster_node_seed(0, 0), 0u);
  // Regression: the old `seed + n` scheme made cluster seed s's node n
  // share its RNG stream with cluster seed s+n's node 0, so adjacent-seed
  // experiment arms were partially correlated. The splitmix64 derivation
  // must collide with neither the raw adjacent seeds nor its own node 0.
  for (std::uint64_t s = 0; s < 64; ++s) {
    for (std::uint32_t n = 1; n < 8; ++n) {
      EXPECT_NE(cluster_node_seed(s, n), s + n) << "seed " << s << " node "
                                                << n;
      EXPECT_NE(cluster_node_seed(s, n), cluster_node_seed(s + n, 0));
      EXPECT_NE(cluster_node_seed(s, n), cluster_node_seed(s, 0));
    }
  }
  // Distinct nodes of one cluster draw distinct streams.
  std::set<std::uint64_t> seen;
  for (std::uint32_t n = 0; n < 16; ++n) {
    seen.insert(cluster_node_seed(7, n));
  }
  EXPECT_EQ(seen.size(), 16u);
  // Determinism: the derivation is a pure function.
  EXPECT_EQ(cluster_node_seed(7, 3), cluster_node_seed(7, 3));
}

// --- Republish fan-out -----------------------------------------------------

TEST(StoreCluster, TrickleRepublishFansOutToEveryReplica) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(2, 2, 1);
  StoreCluster cluster(ccfg, m.plan, m.values);
  const auto& range = cluster.placement().tables[0][0];
  ASSERT_EQ(range.nodes.size(), 2u);

  // Retrained values for table 0: every vector perturbed.
  EmbeddingTable fresh = m.values[0];
  for (VectorId v = 0; v < fresh.num_vectors(); ++v) {
    for (float& x : fresh.vector(v)) x += 1.0f;
  }
  RepublishConfig rcfg;
  rcfg.blocks_per_interval = 8;
  rcfg.interval_us = 100.0;
  ClusterRepublish push = cluster.begin_trickle_republish(
      0, fresh, m.plan.tables[0], rcfg);
  EXPECT_EQ(push.sessions(), 2u);  // one per replica
  EXPECT_EQ(push.table(), 0u);
  EXPECT_GT(push.total_blocks(), 0u);
  std::size_t pumps = 0;
  while (!push.done()) {
    push.pump();
    cluster.advance_time_us(100.0);
    ASSERT_LT(++pumps, 10'000u);
  }
  EXPECT_TRUE(push.mapping_swapped());
  // Every session wrote its full diff; the two replicas did equal work.
  EXPECT_EQ(push.written_blocks(), push.total_blocks());

  // EVERY replica serves the fresh bytes: force each node in turn by
  // downing the other.
  for (std::uint32_t down = 0; down < 2; ++down) {
    cluster.set_node_down(down, true);
    MultiGetRequest req;
    req.add(0, std::vector<VectorId>{3, 300});
    const ClusterMultiGetResult res = cluster.router().multi_get(req);
    ASSERT_TRUE(res.complete());
    EXPECT_TRUE(bytes_match(fresh, 3, res.result.vectors[0].data()));
    EXPECT_TRUE(
        bytes_match(fresh, 300, res.result.vectors[0].data() + kVecBytes));
    cluster.set_node_down(down, false);
  }
  // Both replicas swapped mappings.
  EXPECT_EQ(cluster.metrics().store.mapping_swaps, 2u);
}

TEST(StoreCluster, OneShotRepublishReachesSplitRanges) {
  const Model m = two_table_model();
  ClusterConfig ccfg = cluster_config(3, 1, 0);
  ccfg.placement = PlacementKind::kPlanAware;
  ccfg.split_min_vectors = 256;
  StoreCluster cluster(ccfg, m.plan, m.values);
  ASSERT_EQ(cluster.placement().tables[0].size(), 3u);

  EmbeddingTable fresh = m.values[0];
  for (VectorId v = 0; v < fresh.num_vectors(); ++v) {
    for (float& x : fresh.vector(v)) x -= 2.5f;
  }
  cluster.republish(0, fresh);

  TraceGenerator gen(table_config(), 23);
  const Trace trace = gen.generate(50);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    const auto ids = trace.query(q);
    MultiGetRequest req;
    req.add(0, ids);
    const ClusterMultiGetResult res = cluster.router().multi_get(req);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(bytes_match(fresh, ids[i],
                              res.result.vectors[0].data() + i * kVecBytes))
          << "request " << q << " id " << ids[i];
    }
  }
}

}  // namespace
}  // namespace bandana
