// bandana::StoreCluster — the distributed serving tier: N node-local
// Stores (each with its own NvmIoEngine, DRAM cache, and block-storage
// backend) behind a placement policy, with R-way replication of the
// popularity-head tables and per-node fault injection.
//
// Construction mirrors Store::from_plan, plus the topology:
//
//   ClusterConfig ccfg;
//   ccfg.nodes = 4; ccfg.replicas = 2; ccfg.hot_tables = 2;
//   ccfg.placement = PlacementKind::kPlanAware;
//   ccfg.store = cfg;                      // per-node StoreConfig
//   StoreCluster cluster(ccfg, plan, tables);
//   ClusterMultiGetResult res = cluster.router().multi_get(req);
//
// Requests address LOGICAL tables (the plan's numbering); the router
// scatters them into per-node sub-requests against each node's local
// table ids (cluster/router.h) and merges the results byte-identically
// with the single-node path: a cluster with nodes=1, replicas=1 returns
// the same bytes, the same metrics counters, and the same latencies as a
// bare Store built from the same plan and seed.
//
// Fault injection: a node can be marked down (its replicas stop being
// routable — lookups fail over to alive replicas, and ids with no alive
// replica are zero-filled and counted in the per-request partial-failure
// report) or degraded (a latency multiplier applied to its sub-request
// service latency at merge — a simple tail-inflation model of a busy or
// throttled node). Fault injection models the SERVING path only: the
// republish paths below still write to down nodes, so data is never lost
// and a node marked back up serves fresh bytes.
//
// Retraining pushes go through the cluster, not a single store: republish
// and begin_trickle_republish fan a new plan out to every replica of
// every range of the changed table (slicing the plan and values per range
// for split tables).
//
// Live rebalancing: the placement is no longer static. begin_rebalance
// (cluster/rebalance.h) streams one (table, range, replica) from its donor
// node to a target node while the donor keeps serving, then atomically
// re-points the placement entry. Routing reads the placement through
// PlacementLease — a reader-epoch guard (common/epoch.h) plus the map it
// loaded — so every request routes AND serves against exactly one map:
// entirely-old or entirely-new, never torn. The flip blocks until every
// lease on the old map drains, which is what makes it safe to retire the
// donor's copy afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/placement.h"
#include "common/epoch.h"
#include "common/field_table.h"
#include "core/metrics.h"
#include "core/store.h"
#include "core/trainer.h"
#include "nvm/block_storage.h"
#include "trace/embedding_table.h"

namespace bandana {

class ClusterRouter;     // cluster/router.h
class RebalanceSession;  // cluster/rebalance.h
class StoreBuilder;      // core/store_builder.h

// RouterMetrics: router-side counters, all sum.
//   requests             Cluster multi_gets served.
//   sub_requests         Per-node requests dispatched.
//   failed_sub_requests  Per-request (table, range) groups with no alive
//                        replica.
//   failed_lookups       Ids zero-filled by those losses.
//   failovers            Routing decisions pushed off the balancer's pick
//                        by a down node.
#define BANDANA_ROUTER_METRICS_FIELDS(F)     \
  F(std::uint64_t, requests, sum)            \
  F(std::uint64_t, sub_requests, sum)        \
  F(std::uint64_t, failed_sub_requests, sum) \
  F(std::uint64_t, failed_lookups, sum)      \
  F(std::uint64_t, failovers, sum)

struct RouterMetrics {
  BANDANA_FIELD_STRUCT(RouterMetrics, BANDANA_ROUTER_METRICS_FIELDS)
};

/// Cluster-wide rollup: every node's TableMetrics and StoreMetrics merged
/// (core/metrics.h merge()), the router counters, and the per-node
/// snapshots the rollup was built from. A 1-node cluster's rollup equals
/// the bare store's snapshots field for field.
struct ClusterMetrics {
  TableMetrics tables;
  StoreMetrics store;
  RouterMetrics router;
  std::vector<TableMetrics> per_node_tables;
  std::vector<StoreMetrics> per_node_store;
};

/// One cluster-wide trickle republish: a per-replica TrickleRepublish
/// session for every (range, replica) of the table. pump() pumps every
/// session (each node's rate limiter gates its own writes); done() once
/// every replica swapped. Destroying it unfinished abandons every
/// outstanding session (those replicas keep serving the old plan).
///
/// The sessions compose their block images lazily per wave, so the push
/// owns the per-range value slices it was built from (owned_values_); the
/// caller's whole-table `values` must outlive the push, like the
/// single-store contract (core/store.h).
class ClusterRepublish {
 public:
  /// Pump every session once; returns blocks written across the cluster.
  std::size_t pump();
  /// True once every replica's session completed.
  bool done() const;
  /// True if any replica installed a new mapping.
  bool mapping_swapped() const;

  TableId table() const { return table_; }
  std::size_t sessions() const { return sessions_.size(); }
  std::uint64_t total_blocks() const;
  std::uint64_t written_blocks() const;
  std::uint64_t skipped_blocks() const;

 private:
  friend class StoreCluster;
  explicit ClusterRepublish(TableId t) : table_(t) {}
  TableId table_;
  /// Sliced values the sessions read from; declared before sessions_ so
  /// the sessions are abandoned before their slices die.
  std::vector<std::unique_ptr<EmbeddingTable>> owned_values_;
  std::vector<TrickleRepublish> sessions_;
};

class StoreCluster {
 public:
  /// Per-node builder hook: invoked once per node (after seed and storage
  /// are applied) so callers can give each node its own backend/manifest —
  /// e.g. `.file_storage(dir/"node3.blocks").manifest(dir/"node3.manifest")`
  /// — without threading state through a shared factory.
  using NodeSetup = std::function<void(std::uint32_t node, StoreBuilder&)>;

  /// Build the cluster from a trained plan. `tables[i]` holds the values
  /// for `plan.tables[i]`; node n's store is seeded
  /// cluster_node_seed(cfg.seed, n) (cluster_config.h). The storage
  /// factory (default: heap memory) is invoked once per node — a
  /// file-backed cluster needs a factory that derives a distinct path per
  /// invocation, or a `node_setup` hook that configures each builder.
  /// `placement` overrides the policy cfg.placement names.
  StoreCluster(ClusterConfig cfg, const StorePlan& plan,
               std::span<const EmbeddingTable> tables,
               BlockStorageFactory storage_factory = nullptr,
               const PlacementPolicy* placement = nullptr,
               const NodeSetup& node_setup = nullptr);
  ~StoreCluster();

  StoreCluster(const StoreCluster&) = delete;
  StoreCluster& operator=(const StoreCluster&) = delete;

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  /// Logical tables (the plan's numbering, which requests address).
  std::size_t num_tables() const { return table_vectors_.size(); }
  std::uint32_t table_vectors(TableId t) const { return table_vectors_[t]; }
  const ClusterConfig& config() const { return cfg_; }

  /// RAII read lease on the current placement map. A request routes and
  /// serves against lease.map() for its whole lifetime; a concurrent
  /// placement flip publishes a new map and BLOCKS until every lease taken
  /// against any older map releases, so donor-side state is only retired
  /// once no in-flight request can still reach it. Cheap (two striped
  /// atomic ops), move-only, and safe to hold across blocking serving
  /// calls.
  class PlacementLease {
   public:
    explicit operator bool() const { return static_cast<bool>(guard_); }
    const PlacementMap& map() const { return *map_; }

   private:
    friend class StoreCluster;
    ReaderEpochs::Guard guard_;
    const PlacementMap* map_ = nullptr;
  };

  /// Take a read lease on the placement (see PlacementLease).
  PlacementLease placement_lease() const;

  /// The current placement map. Convenience for quiescent callers (tests,
  /// setup code): the reference is only stable while no rebalance can
  /// flip — concurrent readers must hold a placement_lease() instead.
  const PlacementMap& placement() const {
    return *placement_ptr_.load(std::memory_order_acquire);
  }

  /// Completed placement flips (one per finished migration).
  std::uint64_t placement_flips() const {
    return placement_flips_.load(std::memory_order_relaxed);
  }

  /// Router-outstanding sub-requests on node n — the kLeastOutstanding
  /// balancing signal, exposed so tests can pin its bookkeeping (a failed
  /// sub-request must decrement too, or the node is blacklisted forever).
  std::uint64_t node_outstanding(std::uint32_t n) const {
    return nodes_.at(n)->outstanding.load(std::memory_order_relaxed);
  }

  /// Begin a live migration of (table t, range range_idx)'s replica
  /// `replica` from its current node to `target_node` (cluster/rebalance.h
  /// — session lifecycle, rate limiting, crash ordering). One session at a
  /// time per cluster; throws std::logic_error if one is active, and
  /// std::invalid_argument for a self-move or a target already hosting the
  /// range.
  RebalanceSession begin_rebalance(TableId t, std::size_t range_idx,
                                   std::uint32_t replica,
                                   std::uint32_t target_node,
                                   const RepublishConfig& rate = {});

  Store& node(std::uint32_t n) { return *nodes_[n]->store; }
  const Store& node(std::uint32_t n) const { return *nodes_[n]->store; }

  /// The scatter-gather serving front end (cluster/router.h).
  ClusterRouter& router() { return *router_; }

  // --- Fault injection (serving path only; see file comment) ---
  void set_node_down(std::uint32_t n, bool down);
  void set_node_degraded(std::uint32_t n, double latency_multiplier);
  bool node_down(std::uint32_t n) const;
  double node_degrade(std::uint32_t n) const;

  // --- Metrics ---
  /// Cluster-wide rollup (per-node snapshots merged + router counters).
  ClusterMetrics metrics() const;
  /// Logical table t's counters, merged over its ranges and replicas.
  TableMetrics table_metrics(TableId t) const;
  /// Sum of the nodes' Store::dram_bytes (a 1-node cluster's equals the
  /// bare store's).
  DramBytes dram_bytes() const;

  // --- Retraining pushes (fan out to every replica of the table) ---
  /// One-shot republish (Store::republish: an unlimited-rate, crash-atomic
  /// trickle on the current mapping) on every replica; returns the slowest
  /// replica's write-wave latency.
  double republish(TableId t, const EmbeddingTable& values, double day = 0.0);
  /// Rate-limited trickle republish on every replica (one session per
  /// (range, replica); split tables get per-range plan/value slices, which
  /// the returned push owns). `values` must stay valid until the push is
  /// done or destroyed — the sessions read from it lazily per wave.
  ClusterRepublish begin_trickle_republish(TableId t,
                                           const EmbeddingTable& values,
                                           const TablePlan& plan,
                                           const RepublishConfig& republish_cfg,
                                           double day = 0.0);

  /// Advance every node's simulated clock (arrival pacing).
  void advance_time_us(double delta);
  /// Node 0's clock (all nodes advance in lockstep through the cluster).
  double now_us() const;

  /// Epoch-reclaim pass on every table of every node; returns states freed.
  std::size_t reclaim_retired_states();
  std::size_t retired_states() const;

 private:
  friend class ClusterRouter;
  friend class RebalanceSession;

  struct Node {
    std::unique_ptr<Store> store;
    std::atomic<bool> down{false};
    std::atomic<double> degrade{1.0};
    /// Router-outstanding sub-requests (the kLeastOutstanding signal).
    std::atomic<std::uint64_t> outstanding{0};
  };

  /// Re-point (t, range_idx, replica) at (target_node, target_local) and
  /// flip: publish the new map and block until every lease on older maps
  /// drains. Range boundaries and counts are unchanged, so the router's
  /// flat per-range round-robin state stays valid across flips.
  void flip_range(TableId t, std::size_t range_idx, std::uint32_t replica,
                  std::uint32_t target_node, TableId target_local);
  /// Publish `next` and block until old-map leases drain.
  void flip_placement(std::unique_ptr<const PlacementMap> next);

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint32_t> table_vectors_;
  std::unique_ptr<ClusterRouter> router_;

  // --- Placement, behind reader epochs: a lease enters placement_epochs_
  // and then loads placement_ptr_. ---
  std::unique_ptr<const PlacementMap> placement_owner_;
  std::atomic<const PlacementMap*> placement_ptr_{nullptr};
  ReaderEpochs placement_epochs_;
  /// Serializes placement flips (at most one migration completes at a
  /// time; begin_rebalance also guards with rebalance_active_).
  std::mutex flip_mu_;
  std::atomic<std::uint64_t> placement_flips_{0};
  std::atomic<bool> rebalance_active_{false};
};

}  // namespace bandana
