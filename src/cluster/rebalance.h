// Live shard rebalancing: online migration of one (table, range, replica)
// between nodes while both keep serving, plus the skew-driven policy that
// proposes such moves.
//
// A RebalanceSession (StoreCluster::begin_rebalance) is the cross-node
// analogue of a trickle republish: the donor's copy is claimed (its
// mapping frozen — serving unaffected), a streaming install reserves
// storage on the target and commits a pending-install manifest record,
// and pump() then moves the range's blocks in admission-sized, rate-
// limited waves — donor batched read-out, target batched write-in, both
// open-loop so the migration contends with serving like any background
// I/O. When the last wave lands, the session completes in three ordered
// durability steps:
//
//   1. target: install finish — ONE manifest commit registers the table
//      and drops the pending record (never a half-table);
//   2. cluster: placement flip — publish the re-pointed map and block
//      until every placement lease on older maps drains (no in-flight
//      request can still route to the donor copy);
//   3. donor: retire LAST — tombstone the local table and reclaim its
//      blocks, with its own commit.
//
// A crash (kill -9) at ANY boundary recovers to a servable state: before
// step 1's rename the target reopens with the reserved blocks reclaimed
// and only the donor serves; between 1 and 3 both copies are durable (the
// recovered placement decides which serves); after 3 only the target
// serves. Every vector is classifiable as served-by-donor or
// served-by-target — never lost (test_rebalance crash matrix).
//
// The Rebalancer is the policy half: it reads live per-node signals —
// request mass, NVM read traffic, router-outstanding sub-requests — and
// proposes a single move (hottest movable range, most-loaded donor,
// least-loaded target) when the load skew crosses a threshold. Mechanism
// and policy stay separate: callers decide when to act on a proposal.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cluster/store_cluster.h"
#include "nvm/nvm_config.h"

namespace bandana {

namespace detail {
struct RebalanceState;  // rebalance.cpp
}  // namespace detail

/// Handle on one in-flight range migration (StoreCluster::begin_rebalance).
/// Move-only; calls on one handle serialize internally. Destroying an
/// incomplete session abandons it: the target's reserved blocks return to
/// its free list, the donor keeps serving its copy, and the cluster is
/// free to begin another session.
class RebalanceSession {
 public:
  RebalanceSession(RebalanceSession&& other) noexcept;
  RebalanceSession& operator=(RebalanceSession&& other) noexcept;
  ~RebalanceSession();

  /// Move at most one rate-limiter allowance of blocks donor -> target
  /// (chunked to the admission wave inside each store). Returns blocks
  /// moved this call; 0 when rate-limited (advance the cluster clock) or
  /// already complete. The final pump also runs the completion flip
  /// (steps 1-3 above) before returning.
  std::size_t pump();

  /// Pump to completion, advancing the cluster clock by one limiter
  /// interval whenever a pump is rate-limited. For tests and synchronous
  /// callers; live callers interleave pump() with serving.
  void run_to_completion();

  /// True once the placement flipped and the donor copy was retired.
  bool done() const;

  TableId table() const;
  std::size_t range_index() const;
  std::uint32_t replica() const;
  std::uint32_t donor() const;
  std::uint32_t target() const;
  /// The target node's local table id for the migrated range (valid once
  /// done()).
  TableId target_local() const;
  std::uint64_t total_blocks() const;
  std::uint64_t streamed_blocks() const;
  std::uint64_t waves() const;

 private:
  friend class StoreCluster;
  explicit RebalanceSession(std::unique_ptr<detail::RebalanceState> state);
  void abandon() noexcept;
  std::unique_ptr<detail::RebalanceState> state_;
};

/// One proposed migration: move (table, range_index)'s replica `replica`
/// off `donor` onto `target`.
struct MoveProposal {
  TableId table = 0;
  std::size_t range_index = 0;
  std::uint32_t replica = 0;
  std::uint32_t donor = 0;
  std::uint32_t target = 0;
  double donor_load = 0.0;   ///< Donor's load score at proposal time.
  double target_load = 0.0;  ///< Target's load score at proposal time.
};

struct RebalancerConfig {
  /// Propose only when donor_load >= skew_threshold * target_load.
  double skew_threshold = 1.25;
  /// Minimum lookups the donor must have absorbed — suppresses proposals
  /// off cold-start noise.
  std::uint64_t min_donor_lookups = 1024;
  /// Weight of an NVM block read vs a (cached) lookup in the load score:
  /// misses cost device time, hits cost almost nothing.
  double miss_weight = 4.0;
};

/// Skew-driven move policy over live cluster metrics. Stateless between
/// calls: each propose() re-reads the per-node counters (cumulative since
/// construction) and the current placement.
class Rebalancer {
 public:
  explicit Rebalancer(const StoreCluster& cluster, RebalancerConfig cfg = {})
      : cluster_(cluster), cfg_(cfg) {}

  /// Load score of node n: request mass + weighted NVM reads + currently
  /// outstanding router sub-requests (the live-pressure term).
  double node_load(std::uint32_t n) const;

  /// The single best move, or nullopt when the cluster is balanced (skew
  /// under threshold), the donor is too cold, or nothing on the donor can
  /// move (every range's other replicas already cover the target, or the
  /// donor hosts nothing). Picks the most-loaded donor, the least-loaded
  /// target, and the donor's hottest movable range.
  std::optional<MoveProposal> propose() const;

  const RebalancerConfig& config() const { return cfg_; }

 private:
  const StoreCluster& cluster_;
  RebalancerConfig cfg_;
};

}  // namespace bandana
