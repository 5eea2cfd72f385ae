// Live shard rebalancing: online range migration with crash-safe placement
// flips (cluster/rebalance.h).
//
// The serving invariant under test: a migration streams a (table, range,
// replica) donor -> target in rate-limited waves WHILE the donor serves,
// then flips the placement entry behind reader leases — so every lookup
// issued at any point before, during, or after the move returns the exact
// table bytes, with zero failed lookups and no torn routing. The crash
// matrix pins the durability ordering (target pending-install commit,
// streamed waves, target finish commit, placement flip, donor retire
// commit): a kill-9 at EVERY write-wave boundary and on both sides of both
// manifest renames must reopen to at least one committed replica of every
// vector of the migrating range — never a half-table, never data loss.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/rebalance.h"
#include "cluster/router.h"
#include "cluster/store_cluster.h"
#include "common/rng.h"
#include "core/manifest.h"
#include "core/store_builder.h"
#include "nvm/block_storage.h"
#include "partition/layout.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

constexpr std::size_t kVecBytes = 128;  // dim 32 x fp32
constexpr std::uint32_t kVpb = 32;      // 4 KB blocks / 128 B vectors

TableWorkloadConfig table_config(std::uint32_t vectors) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = vectors;
  cfg.dim = 32;
  cfg.mean_lookups_per_query = 10;
  cfg.num_profiles = 64;
  return cfg;
}

StoreConfig store_config() {
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 1;
  return cfg;
}

TablePolicy test_policy() {
  TablePolicy pol;
  pol.cache_vectors = 256;
  pol.policy = PrefetchPolicy::kNone;
  return pol;
}

TablePlan plan_of(std::uint32_t vectors, std::uint64_t layout_seed) {
  return TablePlan{layout_seed == 0
                       ? BlockLayout::identity(vectors, kVpb)
                       : BlockLayout::random(vectors, kVpb, layout_seed),
                   /*access_counts=*/{}, test_policy(),
                   /*shp_train_fanout=*/0.0};
}

/// Two tables with distinct value sets and layouts.
struct Model {
  StorePlan plan;
  std::vector<EmbeddingTable> values;
};

Model make_model(std::uint32_t vectors) {
  Model m;
  m.values.push_back(TraceGenerator(table_config(vectors), 1).make_embeddings());
  m.values.push_back(TraceGenerator(table_config(vectors), 2).make_embeddings());
  m.plan.tables.push_back(plan_of(vectors, 0));
  m.plan.tables.push_back(plan_of(vectors, 7));
  return m;
}

ClusterConfig cluster_config(std::uint32_t nodes, std::uint32_t replicas,
                             std::uint32_t hot_tables) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replicas = replicas;
  cfg.hot_tables = hot_tables;
  cfg.store = store_config();
  return cfg;
}

/// Deterministic placement for migration tests: table t lives whole on
/// node_of[t], one replica. Makes donor/target known up front instead of
/// reverse-engineering the hash policy.
class FixedPlacement final : public PlacementPolicy {
 public:
  explicit FixedPlacement(std::vector<std::uint32_t> node_of)
      : node_of_(std::move(node_of)) {}

  PlacementMap place(const StorePlan& plan,
                     std::span<const EmbeddingTable> tables,
                     const ClusterConfig&) const override {
    PlacementMap pm;
    pm.tables.resize(plan.tables.size());
    for (std::size_t t = 0; t < plan.tables.size(); ++t) {
      PlacementMap::Range r;
      r.lo = 0;
      r.hi = tables[t].num_vectors();
      r.nodes = {node_of_.at(t)};
      pm.tables[t].push_back(std::move(r));
    }
    return pm;
  }
  const char* name() const override { return "fixed"; }

 private:
  std::vector<std::uint32_t> node_of_;
};

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 const std::byte* got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got, want.data(), want.size()) == 0;
}

/// Sweep every vector of every table through the router and demand exact
/// bytes — the post-migration ground truth check.
void expect_router_serves_model(StoreCluster& c, const Model& m) {
  for (TableId t = 0; t < m.values.size(); ++t) {
    const std::uint32_t n = m.values[t].num_vectors();
    for (std::uint32_t lo = 0; lo < n; lo += 256) {
      std::vector<VectorId> ids(std::min<std::uint32_t>(256, n - lo));
      std::iota(ids.begin(), ids.end(), lo);
      MultiGetRequest req;
      req.add(t, ids);
      const ClusterMultiGetResult got = c.router().multi_get(req);
      ASSERT_TRUE(got.complete());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_TRUE(bytes_match(m.values[t], ids[i],
                                got.result.vectors[0].data() + i * kVecBytes))
            << "table " << t << " vector " << ids[i];
      }
    }
  }
}

// --- Fault-free migration: every lookup served, bytes move intact --------

TEST(Rebalance, MigrationServesEveryLookupAndMovesTheRange) {
  const Model m = make_model(2048);
  const ClusterConfig ccfg = cluster_config(2, 1, 0);
  const FixedPlacement fixed({0, 1});
  StoreCluster cluster(ccfg, m.plan, m.values, nullptr, &fixed);
  ASSERT_EQ(cluster.placement().tables[0][0].nodes,
            std::vector<std::uint32_t>{0});
  const TableId donor_local = cluster.placement().tables[0][0].local_ids[0];

  RepublishConfig rate;
  rate.blocks_per_interval = 16;  // 64-block table -> at least 4 waves
  rate.interval_us = 100.0;
  RebalanceSession s = cluster.begin_rebalance(0, 0, 0, 1, rate);
  EXPECT_EQ(s.donor(), 0u);
  EXPECT_EQ(s.target(), 1u);
  EXPECT_EQ(s.total_blocks(), 64u);

  // Serve live traffic against BOTH tables while the move streams; the
  // donor keeps serving table 0 until the flip, and no request ever fails
  // or reads torn bytes.
  TraceGenerator gen(table_config(2048), 9);
  const Trace trace = gen.generate(200);
  std::size_t q = 0;
  std::uint64_t rate_limited_pumps = 0;
  while (!s.done()) {
    MultiGetRequest req;
    req.add(0, trace.query(q % trace.num_queries()));
    req.add(1, trace.query((q + 1) % trace.num_queries()));
    ++q;
    const ClusterMultiGetResult got = cluster.router().multi_get(req);
    ASSERT_TRUE(got.complete());
    for (std::size_t g = 0; g < req.gets.size(); ++g) {
      const auto& get = req.gets[g];
      for (std::size_t i = 0; i < get.ids.size(); ++i) {
        ASSERT_TRUE(bytes_match(m.values[get.table], get.ids[i],
                                got.result.vectors[g].data() + i * kVecBytes));
      }
    }
    if (s.pump() == 0 && !s.done()) {
      ++rate_limited_pumps;
      cluster.advance_time_us(rate.interval_us);
    }
  }
  EXPECT_EQ(s.streamed_blocks(), 64u);
  EXPECT_GE(s.waves(), 4u);
  EXPECT_GT(rate_limited_pumps, 0u);  // the limiter actually gated the move
  EXPECT_GT(cluster.node(0).total_metrics().lookups, 0u);  // donor stayed live

  // The placement entry flipped exactly once and now names the target.
  EXPECT_EQ(cluster.placement_flips(), 1u);
  const PlacementMap::Range& r = cluster.placement().tables[0][0];
  EXPECT_EQ(r.nodes, std::vector<std::uint32_t>{1});
  EXPECT_EQ(r.local_ids[0], s.target_local());
  EXPECT_TRUE(cluster.node(0).table_retired(donor_local));

  // Migration accounting landed on the right sides.
  EXPECT_EQ(cluster.node(0).store_metrics().migration_read_blocks, 64u);
  EXPECT_EQ(cluster.node(0).store_metrics().tables_retired, 1u);
  EXPECT_EQ(cluster.node(1).store_metrics().migration_write_blocks, 64u);
  EXPECT_EQ(cluster.node(1).store_metrics().table_installs, 1u);
  EXPECT_EQ(cluster.metrics().router.failed_lookups, 0u);

  expect_router_serves_model(cluster, m);

  // Byte equivalence against a cold-built cluster with the post-move
  // placement: the migrated cluster serves the exact bytes a cluster built
  // that way from scratch would.
  const FixedPlacement moved({1, 1});
  StoreCluster cold(ccfg, m.plan, m.values, nullptr, &moved);
  for (std::size_t i = 0; i < 50; ++i) {
    MultiGetRequest req;
    req.add(0, trace.query(i)).add(1, trace.query(i + 50));
    const ClusterMultiGetResult a = cluster.router().multi_get(req);
    const ClusterMultiGetResult b = cold.router().multi_get(req);
    ASSERT_EQ(a.result.vectors, b.result.vectors) << "request " << i;
  }
}

TEST(Rebalance, AbandonedSessionKeepsDonorServingAndIsRestartable) {
  const Model m = make_model(2048);
  const ClusterConfig ccfg = cluster_config(2, 1, 0);
  const FixedPlacement fixed({0, 1});
  StoreCluster cluster(ccfg, m.plan, m.values, nullptr, &fixed);

  RepublishConfig rate;
  rate.blocks_per_interval = 8;
  rate.interval_us = 100.0;
  {
    RebalanceSession s = cluster.begin_rebalance(0, 0, 0, 1, rate);
    EXPECT_GT(s.pump(), 0u);
    EXPECT_FALSE(s.done());
    // Destroyed mid-stream: the move is abandoned.
  }
  // Nothing flipped, the donor still owns and serves the range, and the
  // target kept no half-table.
  EXPECT_EQ(cluster.placement_flips(), 0u);
  EXPECT_EQ(cluster.placement().tables[0][0].nodes,
            std::vector<std::uint32_t>{0});
  EXPECT_FALSE(cluster.node(0).table_retired(0));
  EXPECT_EQ(cluster.node(1).num_tables(), 1u);
  expect_router_serves_model(cluster, m);

  // The abandon released both the cluster slot and the donor claim: a new
  // session starts cleanly and completes.
  RebalanceSession again = cluster.begin_rebalance(0, 0, 0, 1, rate);
  again.run_to_completion();
  EXPECT_TRUE(again.done());
  EXPECT_EQ(cluster.placement_flips(), 1u);
  expect_router_serves_model(cluster, m);
}

TEST(Rebalance, BeginValidationAndSingleSessionGuard) {
  const Model m = make_model(2048);
  // 3 nodes, both tables hot with 2 replicas: every range leaves exactly
  // one node free to be a legal target.
  StoreCluster cluster(cluster_config(3, 2, 2), m.plan, m.values);
  const PlacementMap::Range r = cluster.placement().tables[0][0];
  ASSERT_EQ(r.nodes.size(), 2u);
  std::uint32_t free_node = 0;
  for (std::uint32_t n = 0; n < 3; ++n) {
    if (n != r.nodes[0] && n != r.nodes[1]) free_node = n;
  }

  EXPECT_THROW(cluster.begin_rebalance(99, 0, 0, free_node),
               std::out_of_range);
  EXPECT_THROW(cluster.begin_rebalance(0, 9, 0, free_node),
               std::out_of_range);
  EXPECT_THROW(cluster.begin_rebalance(0, 0, 9, free_node),
               std::out_of_range);
  EXPECT_THROW(cluster.begin_rebalance(0, 0, 0, 99), std::out_of_range);
  EXPECT_THROW(cluster.begin_rebalance(0, 0, 0, r.nodes[0]),
               std::invalid_argument);  // self-move
  EXPECT_THROW(cluster.begin_rebalance(0, 0, 0, r.nodes[1]),
               std::invalid_argument);  // target already hosts the range

  // Every failed begin released the session slot: a valid begin works, and
  // only ONE session may exist at a time.
  const std::uint64_t donor_blocks_before =
      cluster.node(r.nodes[0]).storage().num_blocks();
  RebalanceSession s = cluster.begin_rebalance(0, 0, 0, free_node);
  EXPECT_THROW(cluster.begin_rebalance(1, 0, 0, 0), std::logic_error);
  s.run_to_completion();
  EXPECT_EQ(cluster.placement_flips(), 1u);
  EXPECT_EQ(cluster.placement().tables[0][0].nodes[0], free_node);

  // Round trip: move the replica back. The original donor's retired blocks
  // sit in its free pool, so the returning install reuses them without
  // growing storage.
  RebalanceSession back = cluster.begin_rebalance(0, 0, 0, r.nodes[0]);
  back.run_to_completion();
  EXPECT_EQ(cluster.placement_flips(), 2u);
  EXPECT_EQ(cluster.placement().tables[0][0].nodes[0], r.nodes[0]);
  EXPECT_EQ(cluster.node(r.nodes[0]).storage().num_blocks(),
            donor_blocks_before);
  expect_router_serves_model(cluster, m);
}

// --- Rebalancer policy ----------------------------------------------------

TEST(Rebalancer, ProposesHottestRangeUnderSkewAndMoveExecutes) {
  const Model m = make_model(2048);
  const ClusterConfig ccfg = cluster_config(2, 1, 0);
  // Both tables piled onto node 0; node 1 idle — the textbook skew.
  const FixedPlacement fixed({0, 0});
  StoreCluster cluster(ccfg, m.plan, m.values, nullptr, &fixed);

  RebalancerConfig rcfg;
  rcfg.min_donor_lookups = 64;
  const Rebalancer reb(cluster, rcfg);
  EXPECT_FALSE(reb.propose().has_value());  // idle cluster: no signal

  // Table 0 takes 10x table 1's traffic.
  TraceGenerator gen(table_config(2048), 5);
  const Trace trace = gen.generate(200);
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q));
    if (q % 10 == 0) req.add(1, trace.query(q));
    cluster.router().multi_get(req);
  }

  const std::optional<MoveProposal> p = reb.propose();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->donor, 0u);
  EXPECT_EQ(p->target, 1u);
  EXPECT_EQ(p->table, 0u);  // the hottest range moves first
  EXPECT_GT(p->donor_load, p->target_load);
  EXPECT_GE(reb.node_load(0), rcfg.skew_threshold * 1.0);

  RebalanceSession s =
      cluster.begin_rebalance(p->table, p->range_index, p->replica, p->target);
  s.run_to_completion();
  EXPECT_EQ(cluster.placement().tables[0][0].nodes[0], 1u);
  expect_router_serves_model(cluster, m);
}

// --- Serve-while-migrating stress (run under TSan in CI) ------------------

TEST(Rebalance, ServeWhileMigratingIsRaceFreeAndUntorn) {
  const Model m = make_model(2048);
  const ClusterConfig ccfg = cluster_config(2, 1, 0);
  const FixedPlacement fixed({0, 1});
  StoreCluster cluster(ccfg, m.plan, m.values, nullptr, &fixed);

  RepublishConfig rate;
  rate.blocks_per_interval = 8;
  rate.interval_us = 50.0;
  RebalanceSession session = cluster.begin_rebalance(0, 0, 0, 1, rate);

  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> served{0};
  auto serve = [&](std::uint64_t tid) {
    std::uint64_t x = splitmix64(0x51ED + tid);
    for (int it = 0; it < 300 && !torn.load(std::memory_order_relaxed);
         ++it) {
      std::vector<VectorId> ids0(8), ids1(8);
      for (std::size_t j = 0; j < 8; ++j) {
        x = splitmix64(x);
        ids0[j] = static_cast<VectorId>(x % 2048);
        x = splitmix64(x);
        ids1[j] = static_cast<VectorId>(x % 2048);
      }
      MultiGetRequest req;
      req.add(0, ids0).add(1, ids1);
      const ClusterMultiGetResult got = cluster.router().multi_get(req);
      if (!got.complete()) {
        torn.store(true, std::memory_order_relaxed);
        break;
      }
      for (std::size_t g = 0; g < req.gets.size(); ++g) {
        const auto& get = req.gets[g];
        for (std::size_t i = 0; i < get.ids.size(); ++i) {
          if (!bytes_match(m.values[get.table], get.ids[i],
                           got.result.vectors[g].data() + i * kVecBytes)) {
            torn.store(true, std::memory_order_relaxed);
          }
        }
      }
      served.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> servers;
  for (std::uint64_t t = 0; t < 3; ++t) servers.emplace_back(serve, t);
  std::thread migrator([&] {
    while (!session.done()) {
      if (session.pump() == 0 && !session.done()) {
        cluster.advance_time_us(rate.interval_us);
      }
    }
  });
  for (auto& t : servers) t.join();
  migrator.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GT(served.load(), 0u);
  EXPECT_TRUE(session.done());
  EXPECT_EQ(cluster.placement_flips(), 1u);
  EXPECT_EQ(cluster.metrics().router.failed_lookups, 0u);
  expect_router_serves_model(cluster, m);
}

// --- Crash-boundary matrix ------------------------------------------------
// Kill-9-style injection mirroring tests/test_crash_recovery.cpp: the
// target's storage dies (and stays dead) at the Nth install write call, and
// manifest hooks die just before / just after the two completion renames
// (target finish, donor retire). After every crash both nodes reopen from
// their durable manifests and every vector of the migrating range must be
// servable from the donor copy or the target copy — exactly as the
// boundary's durability state dictates, never lost and never half-there.

constexpr std::uint32_t kCrashVectors = 1024;
constexpr std::uint32_t kCrashBlocks = kCrashVectors / kVpb;  // 32

StoreConfig crash_store_config() {
  StoreConfig cfg;
  cfg.cache_shards = 1;
  cfg.simulate_timing = false;
  // 8-block admission wave (queue_depth x channels): the 32-block install
  // spans several write_blocks calls, each one a crash point.
  cfg.device.queue_depth = 4;
  cfg.device.channels = 2;
  return cfg;
}

/// Deterministic value matrix; distinct tags give byte-distinct tables.
EmbeddingTable crash_values(std::uint32_t tag) {
  EmbeddingTable e(kCrashVectors, 32);
  for (std::uint32_t v = 0; v < kCrashVectors; ++v) {
    auto row = e.vector(v);
    for (std::uint16_t d = 0; d < 32; ++d) {
      row[d] = static_cast<float>(tag) * 1000.0f + static_cast<float>(v) +
               static_cast<float>(d) * 0.5f;
    }
  }
  return e;
}

Model crash_model() {
  Model m;
  m.values.push_back(crash_values(1));
  m.values.push_back(crash_values(2));
  m.plan.tables.push_back(plan_of(kCrashVectors, 0));
  m.plan.tables.push_back(plan_of(kCrashVectors, 0xF00D));
  return m;
}

struct CrashInjected : std::runtime_error {
  explicit CrashInjected(const std::string& what) : std::runtime_error(what) {}
};

struct FaultPlan {
  bool armed = false;
  std::uint64_t crash_at = 0;  ///< 1-based write call to die on (0 = never).
  std::uint64_t calls = 0;     ///< Write calls observed while armed.
  bool dead = false;
};

/// Transparent BlockStorage wrapper that dies on the plan's armed write
/// call and stays dead (a crashed process issues no more IO — including
/// the sync barrier ahead of any later manifest commit).
class FaultInjectedStorage final : public BlockStorage {
 public:
  FaultInjectedStorage(std::unique_ptr<BlockStorage> inner,
                       std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_->read_block(b, out);
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    inner_->read_blocks(ops);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    before_write();
    inner_->write_block(b, in);
  }
  void write_blocks(std::span<const BlockWriteOp> ops) override {
    before_write();
    inner_->write_blocks(ops);
  }
  bool prefers_batched_reads() const override {
    return inner_->prefers_batched_reads();
  }
  BlockStorageWriteStats write_stats() const override {
    return inner_->write_stats();
  }
  void sync() override {
    if (plan_->dead) throw CrashInjected("sync on dead storage");
    inner_->sync();
  }
  WaveBufferLease lease_wave_buffer(std::size_t bytes) const override {
    return inner_->lease_wave_buffer(bytes);
  }
  bool same_backing(const BlockStorage& other) const override {
    const auto* w = dynamic_cast<const FaultInjectedStorage*>(&other);
    return inner_->same_backing(w != nullptr ? *w->inner_ : other);
  }

 private:
  void before_write() {
    if (!plan_->armed) return;
    if (plan_->dead) throw CrashInjected("write on dead storage");
    ++plan_->calls;
    if (plan_->crash_at != 0 && plan_->calls >= plan_->crash_at) {
      plan_->dead = true;
      throw CrashInjected("injected crash at write call " +
                          std::to_string(plan_->calls));
    }
  }

  std::unique_ptr<BlockStorage> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

struct Paths {
  std::string block;
  std::string manifest;
};

Paths node_paths(const std::string& name, std::uint32_t node) {
  const std::string base = "/tmp/bandana_rebalance_" +
                           std::to_string(::getpid()) + "_" + name + "_n" +
                           std::to_string(node);
  return {base + ".bin", base + ".manifest"};
}

void cleanup(const Paths& p) {
  std::remove(p.block.c_str());
  std::remove(p.manifest.c_str());
  std::remove((p.manifest + ".tmp").c_str());
}

BlockStorageFactory real_node_factory(const Paths& p) {
  return file_storage_factory(p.block, p.manifest);
}

BlockStorageFactory faulty_node_factory(const Paths& p,
                                        std::shared_ptr<FaultPlan> plan) {
  return [real = real_node_factory(p), plan = std::move(plan)](
             std::uint64_t num_blocks, std::size_t block_bytes) mutable
             -> std::unique_ptr<BlockStorage> {
    return std::make_unique<FaultInjectedStorage>(
        real(num_blocks, block_bytes), plan);
  };
}

/// True iff table t of the reopened store serves EXACTLY `v`'s bytes.
bool serves_exactly(Store& s, TableId t, const EmbeddingTable& v) {
  std::vector<VectorId> ids(v.num_vectors());
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::byte> out(ids.size() * v.vector_bytes());
  try {
    s.lookup_batch(t, ids, out);
  } catch (...) {
    return false;  // retired or absent
  }
  return std::memcmp(out.data(), v.raw().data(), out.size()) == 0;
}

enum class HookPoint {
  kNone,
  kTargetFinishBefore,  ///< Die before the target finish-commit rename.
  kTargetFinishAfter,   ///< Die just after it.
  kDonorRetireBefore,   ///< Die before the donor retire-commit rename.
  kDonorRetireAfter,    ///< Die just after it.
};

struct CrashOutcome {
  bool crashed = false;
  std::uint64_t write_calls = 0;  ///< Target write calls while armed.
};

/// Build a fresh 2-node file-backed cluster (table 0 on node 0, table 1 on
/// node 1), then migrate table 0 to node 1 with the fault armed.
CrashOutcome run_crash_migration(const Paths& p0, const Paths& p1,
                                 std::uint64_t crash_at_write,
                                 HookPoint hook) {
  cleanup(p0);
  cleanup(p1);
  auto fault = std::make_shared<FaultPlan>();
  const Model m = crash_model();
  ClusterConfig ccfg = cluster_config(2, 1, 0);
  ccfg.store = crash_store_config();
  const FixedPlacement fixed({0, 1});
  const StoreCluster::NodeSetup setup = [&](std::uint32_t n,
                                            StoreBuilder& b) {
    const Paths& p = n == 0 ? p0 : p1;
    if (n == 1) {
      b.storage(faulty_node_factory(p, fault));
    } else {
      b.storage(real_node_factory(p));
    }
    b.manifest(p.manifest);
  };
  StoreCluster cluster(ccfg, m.plan, m.values, nullptr, &fixed, setup);
  // Pre-size the target so the install never regrows the file: the armed
  // phase then contains exactly the install write waves.
  cluster.node(1).reserve_blocks(2 * kCrashBlocks);
  fault->armed = true;
  fault->crash_at = crash_at_write;

  CrashOutcome out;
  try {
    RebalanceSession s = cluster.begin_rebalance(0, 0, 0, 1);
    if (hook != HookPoint::kNone) {
      ManifestCommitHooks hooks;
      auto die = [] { throw CrashInjected("injected crash at manifest flip"); };
      const bool after = hook == HookPoint::kTargetFinishAfter ||
                         hook == HookPoint::kDonorRetireAfter;
      if (after) {
        hooks.after_flip = die;
      } else {
        hooks.before_flip = die;
      }
      const bool on_target = hook == HookPoint::kTargetFinishBefore ||
                             hook == HookPoint::kTargetFinishAfter;
      // The first commit the hooked store issues after begin_rebalance is
      // exactly the boundary under test: the target commits next at
      // install_finish, the donor only at retire_table.
      cluster.node(on_target ? 1 : 0).set_manifest_fault_hooks(hooks);
    }
    s.run_to_completion();
  } catch (const CrashInjected&) {
    out.crashed = true;
  }
  out.write_calls = fault->calls;
  return out;
}

/// Reopen both nodes from their durable manifests and classify the
/// migrating range: served by the donor copy, the target copy, or both —
/// as the crash boundary dictates — and NEVER lost or half-installed.
void expect_recovered(const Paths& p0, const Paths& p1, bool expect_donor,
                      bool expect_target) {
  const Model m = crash_model();
  const StoreConfig cfg = crash_store_config();
  Store donor = Store::open(cfg, p0.manifest, real_node_factory(p0));
  Store target = Store::open(cfg, p1.manifest, real_node_factory(p1));
  ASSERT_EQ(donor.num_tables(), 1u);
  ASSERT_GE(target.num_tables(), 1u);
  // The target's own table is untouched by the migration.
  EXPECT_TRUE(serves_exactly(target, 0, m.values[1]));

  const bool donor_serves =
      !donor.table_retired(0) && serves_exactly(donor, 0, m.values[0]);
  const bool target_serves = target.num_tables() == 2 &&
                             !target.table_retired(1) &&
                             serves_exactly(target, 1, m.values[0]);
  EXPECT_TRUE(donor_serves || target_serves)
      << "migrating range lost: no committed replica survived";
  EXPECT_EQ(donor_serves, expect_donor);
  EXPECT_EQ(target_serves, expect_target);

  if (!target_serves) {
    // Strictly before the finish commit there is never a half-table...
    EXPECT_EQ(target.num_tables(), 1u);
    // ...and reopen reclaimed the pending reservation idempotently: a
    // fresh install reuses those blocks without growing storage.
    const std::uint64_t before = target.storage().num_blocks();
    TableInstall install = target.begin_table_install(
        BlockLayout::identity(kCrashVectors, kVpb), test_policy(),
        std::vector<std::uint32_t>(kCrashVectors, 0));
    EXPECT_EQ(target.storage().num_blocks(), before);
    // The probe install is abandoned on scope exit.
  }
}

TEST(RebalanceCrash, EveryWaveAndFlipBoundaryKeepsACommittedReplica) {
  const Paths p0 = node_paths("matrix", 0);
  const Paths p1 = node_paths("matrix", 1);

  // Dry run: the move completes, the donor copy is retired, the target
  // serves. Its write-call count defines the boundary sweep.
  const CrashOutcome dry =
      run_crash_migration(p0, p1, 0, HookPoint::kNone);
  ASSERT_FALSE(dry.crashed);
  ASSERT_GE(dry.write_calls, 2u);  // 32 blocks in 8-block admission waves
  expect_recovered(p0, p1, /*expect_donor=*/false, /*expect_target=*/true);

  // The target's storage dies at every install write-wave boundary. All of
  // them predate the finish commit, so recovery serves entirely from the
  // donor and the target reopens with no half-table.
  for (std::uint64_t k = 1; k <= dry.write_calls; ++k) {
    SCOPED_TRACE("crash at install write call " + std::to_string(k));
    const CrashOutcome run = run_crash_migration(p0, p1, k, HookPoint::kNone);
    EXPECT_TRUE(run.crashed);
    expect_recovered(p0, p1, /*expect_donor=*/true, /*expect_target=*/false);
  }

  // Crash just before the target's finish-commit rename: the pending
  // record is still the durable truth — donor only.
  CrashOutcome run =
      run_crash_migration(p0, p1, 0, HookPoint::kTargetFinishBefore);
  EXPECT_TRUE(run.crashed);
  expect_recovered(p0, p1, /*expect_donor=*/true, /*expect_target=*/false);

  // Just after it: the target's copy is durable, the donor not yet
  // retired — both serve (the safe intermediate state the retire-LAST
  // ordering guarantees).
  run = run_crash_migration(p0, p1, 0, HookPoint::kTargetFinishAfter);
  EXPECT_TRUE(run.crashed);
  expect_recovered(p0, p1, /*expect_donor=*/true, /*expect_target=*/true);

  // Just before the donor's retire rename: same intermediate state.
  run = run_crash_migration(p0, p1, 0, HookPoint::kDonorRetireBefore);
  EXPECT_TRUE(run.crashed);
  expect_recovered(p0, p1, /*expect_donor=*/true, /*expect_target=*/true);

  // Just after it: the handoff is fully durable — target only.
  run = run_crash_migration(p0, p1, 0, HookPoint::kDonorRetireAfter);
  EXPECT_TRUE(run.crashed);
  expect_recovered(p0, p1, /*expect_donor=*/false, /*expect_target=*/true);

  cleanup(p0);
  cleanup(p1);
}

TEST(RetireTable, FreesTheTableAndLeavesATombstone) {
  const Paths p = node_paths("retire", 0);
  cleanup(p);
  const Model m = make_model(2048);
  StoreConfig cfg = store_config();
  StoreBuilder builder(cfg);
  builder.file_storage(p.block).manifest(p.manifest);
  builder.add_table(m.values[0], m.plan.tables[0]);
  builder.add_table(m.values[1], m.plan.tables[1]);
  {
    Store store = builder.build();
    std::vector<std::byte> out(kVecBytes);
    store.lookup(0, 1, out);
    store.lookup(1, 2, out);
    const TableMetrics before = store.total_metrics();

    // A table a trickle push still writes into cannot be retired.
    RepublishConfig slow;
    slow.blocks_per_interval = 1;
    slow.interval_us = 1000.0;
    {
      TrickleRepublish push =
          store.begin_trickle_republish(0, m.values[0], plan_of(2048, 3), slow);
      EXPECT_THROW(store.retire_table(0), std::logic_error);
    }  // abandoned: the claim is released

    store.retire_table(0);
    EXPECT_TRUE(store.table_retired(0));
    EXPECT_THROW(store.lookup(0, 1, out), std::logic_error);
    EXPECT_THROW(store.table_metrics(0), std::logic_error);
    // The freed table's counters stay in the store-level sum.
    EXPECT_EQ(store.total_metrics().lookups, before.lookups);
    EXPECT_EQ(store.retired_states(), 0u);
  }

  // The committed record is a tombstone without a mapping.
  std::optional<Manifest> written = load_manifest(p.manifest);
  ASSERT_TRUE(written.has_value());
  ASSERT_EQ(written->tables.size(), 2u);
  EXPECT_TRUE(written->tables[0].retired);
  EXPECT_TRUE(written->tables[0].order.empty());
  EXPECT_TRUE(written->tables[0].block_map.empty());
  EXPECT_FALSE(written->tables[1].retired);

  // Reopen: no table is built for the tombstone, table 1 keeps its id and
  // serves. A tombstone that still carries the retired table's mapping (as
  // older versions wrote them) opens the same way.
  for (const bool with_mapping : {false, true}) {
    if (with_mapping) {
      written->tables[0].order = m.plan.tables[0].layout.order();
      written->tables[0].block_map = written->tables[1].block_map;
      written->commit_seq += 1;
      write_manifest(p.manifest, *written);
    }
    Store reopened = Store::open(cfg, p.manifest);
    EXPECT_EQ(reopened.num_tables(), 2u);
    EXPECT_TRUE(reopened.table_retired(0)) << with_mapping;
    EXPECT_TRUE(serves_exactly(reopened, 1, m.values[1])) << with_mapping;
  }
  cleanup(p);
}

}  // namespace
}  // namespace bandana
