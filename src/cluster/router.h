// ClusterRouter — scatter-gather serving front end of a StoreCluster.
//
// multi_get takes a request against the cluster's LOGICAL tables, splits
// it into at most one sub-request per node (every id a node owns for this
// request rides in that one sub-request, so the node-local Store's
// request-wide block-read dedup keeps its guarantee: a key appearing in
// two id lists is fetched once per owning node, never once per id list),
// serves the sub-requests against the node stores, and merges the results
// back into the request's shape: result.vectors[g] holds gets[g]'s bytes
// in id order, exactly as a bare Store would lay them out.
//
// Replica choice is made once per (table, range) per request — both
// balancers (round-robin, least-outstanding) rotate ACROSS requests, not
// within one, which is what keeps a request's repeated keys on one node.
// A down node is never chosen: the balancer fails over to an alive
// replica (counted in RouterMetrics::failovers); if no replica is alive,
// the (table, range) group is reported as a failed sub-request, its ids
// are zero-filled, and the per-request ClusterMultiGetResult carries the
// partial-failure accounting.
//
// The merged service latency is the slowest sub-request, after each
// node's degrade multiplier (StoreCluster::set_node_degraded) scales its
// sub-latency — one busy node drags the whole request's tail, which is
// precisely the paper's motivation for replicating the popularity head.
//
// Every request (sync and async) routes and serves under one
// StoreCluster::PlacementLease: the placement map it scattered against
// stays alive — and the donor replicas it routed to stay un-retired —
// until the request's last sub-request completes, even while a live
// rebalance flips the placement mid-flight. A request therefore sees
// entirely-old or entirely-new routing, never a torn mix.
#pragma once

#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "cluster/store_cluster.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/request.h"

namespace bandana {

/// A merged cluster response: the byte-identical MultiGetResult plus this
/// request's partial-failure report.
struct ClusterMultiGetResult {
  MultiGetResult result;
  std::uint64_t sub_requests = 0;      ///< Node sub-requests dispatched.
  std::uint64_t failed_sub_requests = 0;  ///< (table, range) groups lost —
                                          ///< no alive replica.
  std::uint64_t failed_lookups = 0;    ///< Ids zero-filled by those losses.
  std::uint64_t failovers = 0;         ///< Down-node reroutes this request.

  bool complete() const { return failed_lookups == 0; }
};

class ClusterRouter {
 public:
  explicit ClusterRouter(StoreCluster& cluster);

  /// Serve one request: scatter, serve each contacted node in node order,
  /// merge. Throws std::out_of_range on a bad logical table or vector id
  /// before any sub-request is dispatched (the Store::multi_get contract).
  ClusterMultiGetResult multi_get(const MultiGetRequest& request);

  /// Asynchronous scatter-gather on `pool`. On the calling thread: take
  /// the placement lease, validate (so bad requests still throw here),
  /// pick each touched (table, range)'s replica, stamp each contacted
  /// node's arrival (like Store::multi_get_async) and raise its
  /// outstanding count. Everything else runs in the pool: the first task
  /// builds the sub-requests, submits all but one and serves that one
  /// itself; the last task to finish merges and fulfils the future. Tasks
  /// never block on other tasks — a pool of any size makes progress.
  std::future<ClusterMultiGetResult> multi_get_async(MultiGetRequest request,
                                                     ThreadPool& pool);

  /// Lock-free snapshot of the router counters.
  RouterMetrics metrics() const;

  /// Merged per-request service latency (degrade multipliers applied), as
  /// a fixed-size histogram like Store::request_latency_us().
  LatencyHistogram request_latency_us() const;

 private:
  /// One routed per-node sub-request plus the merge-back bookkeeping.
  struct SubRequest {
    std::uint32_t node = 0;
    MultiGetRequest req;
    /// entry_get[e] = index into the original request's gets that
    /// req.gets[e] serves (every entry serves exactly one original get).
    std::vector<std::size_t> entry_get;
  };
  /// Where one id of the original request went: sub-request `sub`'s entry
  /// `entry`, position `offset` — or nowhere (sub < 0: no alive replica).
  struct IdSlot {
    std::int32_t sub = -1;
    std::uint32_t entry = 0;
    std::uint32_t offset = 0;
  };
  struct Scatter {
    std::vector<SubRequest> subs;
    /// One per id of the request, gets in order and ids in order within.
    std::vector<IdSlot> slots;
    std::uint64_t failed_sub_requests = 0;
    std::uint64_t failed_lookups = 0;
    std::uint64_t failovers = 0;
  };
  /// A request's replica choices: the part of routing that must happen on
  /// the submitting thread, in submission order, so rotation tickets and
  /// least-outstanding reads follow the order requests arrive in.
  struct Route {
    /// Per flat (table, range) slot, range_offset_[t] + range index: the
    /// chosen node, kNoReplica when every replica is down, or kUntouched.
    std::vector<std::int32_t> node_of;
    /// Contacted nodes in first-touch order; sub-request s serves nodes[s].
    std::vector<std::uint32_t> nodes;
    std::uint64_t failed_sub_requests = 0;
    std::uint64_t failovers = 0;
  };
  static constexpr std::int32_t kNoReplica = -1;
  static constexpr std::int32_t kUntouched = -2;

  /// Validate the whole request and pick a replica for every (table,
  /// range) it touches, against `pm`. Throws before any side effect on
  /// the metrics or the rotation. `pm` comes from a request-scoped
  /// placement lease the caller holds until the request is fully served,
  /// so a concurrent rebalance flip cannot retire donor state this request
  /// still routes to.
  Route route(const PlacementMap& pm, const MultiGetRequest& request);
  /// Build the per-node sub-requests for a routed request: per-entry id
  /// lists sized in advance, entries and sub-requests in first-touch
  /// order. Touches no shared state, so it can run on any thread.
  Scatter bucket(const PlacementMap& pm, const MultiGetRequest& request,
                 const Route& rt) const;
  /// Balance a (table, range) onto an alive replica. Returns the node, or
  /// -1 when every replica is down. `failover` reports a down node pushed
  /// the choice off the balancer's pick.
  std::int32_t pick_replica(TableId t, std::size_t range_idx,
                            const PlacementMap::Range& range, bool& failover);
  ClusterMultiGetResult merge(const MultiGetRequest& request, Scatter&& sc,
                              std::vector<MultiGetResult>&& sub_results);
  /// Count one merged request in the router metrics.
  void settle(const ClusterMultiGetResult& out);

  StoreCluster& cluster_;
  /// Flat per-(table, range) round-robin counters; range_offset_[t] is
  /// table t's first slot, num_ranges_ the slot count.
  std::vector<std::size_t> range_offset_;
  std::size_t num_ranges_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> rr_;

  struct AtomicRouterMetrics {
    BANDANA_FIELD_MIRROR(RouterMetrics, BANDANA_ROUTER_METRICS_FIELDS)
  };
  AtomicRouterMetrics metrics_;

  mutable std::mutex latency_mu_;
  LatencyHistogram request_latency_;
};

}  // namespace bandana
