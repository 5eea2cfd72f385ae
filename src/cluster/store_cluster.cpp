#include "cluster/store_cluster.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "cluster/router.h"
#include "core/store_builder.h"

namespace bandana {

StoreCluster::StoreCluster(ClusterConfig cfg, const StorePlan& plan,
                           std::span<const EmbeddingTable> tables,
                           BlockStorageFactory storage_factory,
                           const PlacementPolicy* placement,
                           const NodeSetup& node_setup)
    : cfg_(std::move(cfg)) {
  if (cfg_.nodes == 0) {
    throw std::invalid_argument("StoreCluster: nodes must be >= 1");
  }
  if (plan.tables.size() != tables.size()) {
    throw std::invalid_argument(
        "StoreCluster: plan/tables size mismatch");
  }
  std::unique_ptr<PlacementPolicy> owned_policy;
  if (placement == nullptr) {
    owned_policy = make_placement_policy(cfg_);
    placement = owned_policy.get();
  }
  PlacementMap placement_map = placement->place(plan, tables, cfg_);
  if (placement_map.tables.size() != plan.tables.size()) {
    throw std::logic_error("StoreCluster: placement covers wrong table count");
  }

  table_vectors_.reserve(plan.tables.size());
  for (const auto& tp : plan.tables) {
    table_vectors_.push_back(tp.layout.num_vectors());
  }

  // One builder per node. Node seeds come from cluster_node_seed
  // (cluster_config.h): splitmix64-derived per-node streams, with node 0
  // keeping the raw seed so a 1-node cluster stays bit-identical to a bare
  // Store built with cfg.seed.
  std::vector<StoreBuilder> builders;
  builders.reserve(cfg_.nodes);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    builders.emplace_back(cfg_.store);
    builders.back().seed(cluster_node_seed(cfg_.seed, n));
    if (storage_factory) builders.back().storage(storage_factory);
    if (node_setup) node_setup(n, builders.back());
  }

  // Register every (table, range, replica) in deterministic order —
  // tables ascending, ranges ascending, replicas primary-first — handing
  // out node-local table ids as we go. Split ranges own their sliced
  // values until every node has built (builders hold references).
  const std::uint32_t vpb = cfg_.store.vectors_per_block();
  std::vector<std::unique_ptr<EmbeddingTable>> slices;
  std::vector<TableId> next_local(cfg_.nodes, 0);
  for (std::size_t t = 0; t < plan.tables.size(); ++t) {
    const std::uint32_t nv = plan.tables[t].layout.num_vectors();
    auto& ranges = placement_map.tables[t];
    if (ranges.empty()) {
      throw std::logic_error("StoreCluster: table with no placement range");
    }
    for (auto& range : ranges) {
      if (range.lo >= range.hi || range.hi > nv || range.nodes.empty()) {
        throw std::logic_error("StoreCluster: malformed placement range");
      }
      TablePlan sub = slice_table_plan(plan.tables[t], range.lo, range.hi, vpb);
      const EmbeddingTable* values = &tables[t];
      if (range.lo != 0 || range.hi != nv) {
        slices.push_back(std::make_unique<EmbeddingTable>(
            slice_embedding_table(tables[t], range.lo, range.hi)));
        values = slices.back().get();
      }
      range.local_ids.clear();
      range.local_ids.reserve(range.nodes.size());
      for (const std::uint32_t n : range.nodes) {
        if (n >= cfg_.nodes) {
          throw std::logic_error("StoreCluster: range names a bad node");
        }
        range.local_ids.push_back(next_local[n]++);
        builders[n].add_table(*values, sub);
      }
    }
  }

  nodes_.reserve(cfg_.nodes);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    auto node = std::make_unique<Node>();
    node->store = std::make_unique<Store>(builders[n].build());
    nodes_.push_back(std::move(node));
  }
  placement_owner_ =
      std::make_unique<const PlacementMap>(std::move(placement_map));
  placement_ptr_.store(placement_owner_.get(), std::memory_order_release);
  router_ = std::make_unique<ClusterRouter>(*this);
}

StoreCluster::~StoreCluster() = default;

StoreCluster::PlacementLease StoreCluster::placement_lease() const {
  PlacementLease lease;
  // Enter THEN load (seq_cst, common/epoch.h): either a concurrent flip
  // waits for this lease, or this lease already routes on the new map.
  lease.guard_ = placement_epochs_.enter();
  lease.map_ = placement_ptr_.load(std::memory_order_seq_cst);
  return lease;
}

void StoreCluster::flip_placement(std::unique_ptr<const PlacementMap> next) {
  std::lock_guard<std::mutex> flip_lock(flip_mu_);
  const std::unique_ptr<const PlacementMap> old =
      std::exchange(placement_owner_, std::move(next));
  placement_ptr_.store(placement_owner_.get(), std::memory_order_seq_cst);
  placement_flips_.fetch_add(1, std::memory_order_relaxed);
  // Every lease that could still hold `old` is waited out here, making it
  // safe for the caller to retire donor-side state once we return.
  placement_epochs_.synchronize();
  // `old` dies here — no reader can reference it.
}

void StoreCluster::flip_range(TableId t, std::size_t range_idx,
                              std::uint32_t replica, std::uint32_t target_node,
                              TableId target_local) {
  auto next = std::make_unique<PlacementMap>(placement());
  auto& range = next->tables.at(t).at(range_idx);
  range.nodes.at(replica) = target_node;
  range.local_ids.at(replica) = target_local;
  flip_placement(
      std::unique_ptr<const PlacementMap>(std::move(next)));
}

void StoreCluster::set_node_down(std::uint32_t n, bool down) {
  nodes_.at(n)->down.store(down, std::memory_order_release);
}

void StoreCluster::set_node_degraded(std::uint32_t n,
                                     double latency_multiplier) {
  if (latency_multiplier < 1.0) {
    throw std::invalid_argument(
        "set_node_degraded: multiplier must be >= 1 (1 = healthy)");
  }
  nodes_.at(n)->degrade.store(latency_multiplier, std::memory_order_release);
}

bool StoreCluster::node_down(std::uint32_t n) const {
  return nodes_.at(n)->down.load(std::memory_order_acquire);
}

double StoreCluster::node_degrade(std::uint32_t n) const {
  return nodes_.at(n)->degrade.load(std::memory_order_acquire);
}

ClusterMetrics StoreCluster::metrics() const {
  ClusterMetrics m;
  m.per_node_tables.reserve(nodes_.size());
  m.per_node_store.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    m.per_node_tables.push_back(node->store->total_metrics());
    m.per_node_store.push_back(node->store->store_metrics());
    m.tables.merge(m.per_node_tables.back());
    m.store.merge(m.per_node_store.back());
  }
  m.router = router_->metrics();
  return m;
}

DramBytes StoreCluster::dram_bytes() const {
  DramBytes d;
  for (const auto& node : nodes_) d += node->store->dram_bytes();
  return d;
}

TableMetrics StoreCluster::table_metrics(TableId t) const {
  TableMetrics total;
  const PlacementLease lease = placement_lease();
  for (const auto& range : lease.map().tables.at(t)) {
    for (std::size_t r = 0; r < range.nodes.size(); ++r) {
      total.merge(
          nodes_[range.nodes[r]]->store->table_metrics(range.local_ids[r]));
    }
  }
  return total;
}

double StoreCluster::republish(TableId t, const EmbeddingTable& values,
                               double day) {
  if (t >= num_tables()) {
    throw std::out_of_range("republish: bad logical table id");
  }
  if (values.num_vectors() != table_vectors_[t]) {
    throw std::invalid_argument("republish: values shape mismatch");
  }
  double max_latency = 0.0;
  const PlacementLease lease = placement_lease();
  for (const auto& range : lease.map().tables[t]) {
    const bool whole = range.lo == 0 && range.hi == table_vectors_[t];
    EmbeddingTable sliced(1, 1);
    if (!whole) sliced = slice_embedding_table(values, range.lo, range.hi);
    const EmbeddingTable& vals = whole ? values : sliced;
    for (std::size_t r = 0; r < range.nodes.size(); ++r) {
      max_latency = std::max(
          max_latency, nodes_[range.nodes[r]]->store->republish(
                           range.local_ids[r], vals, day));
    }
  }
  return max_latency;
}

ClusterRepublish StoreCluster::begin_trickle_republish(
    TableId t, const EmbeddingTable& values, const TablePlan& plan,
    const RepublishConfig& republish_cfg, double day) {
  if (t >= num_tables()) {
    throw std::out_of_range("begin_trickle_republish: bad logical table id");
  }
  if (values.num_vectors() != table_vectors_[t] ||
      plan.layout.num_vectors() != table_vectors_[t]) {
    throw std::invalid_argument(
        "begin_trickle_republish: plan/values shape mismatch");
  }
  const std::uint32_t vpb = cfg_.store.vectors_per_block();
  ClusterRepublish push(t);
  // The node sessions compose their block images lazily per wave, so each
  // per-range slice must live as long as its sessions: the push owns them
  // (owned_values_ outlives sessions_ by member order). Whole-table ranges
  // read the caller's `values` directly, which the single-store contract
  // already requires to outlive the sessions.
  const PlacementLease lease = placement_lease();
  for (const auto& range : lease.map().tables[t]) {
    const bool whole = range.lo == 0 && range.hi == table_vectors_[t];
    TablePlan sub_plan = slice_table_plan(plan, range.lo, range.hi, vpb);
    const EmbeddingTable* vals = &values;
    if (!whole) {
      push.owned_values_.push_back(std::make_unique<EmbeddingTable>(
          slice_embedding_table(values, range.lo, range.hi)));
      vals = push.owned_values_.back().get();
    }
    for (std::size_t r = 0; r < range.nodes.size(); ++r) {
      push.sessions_.push_back(
          nodes_[range.nodes[r]]->store->begin_trickle_republish(
              range.local_ids[r], *vals, sub_plan, republish_cfg, day));
    }
  }
  return push;
}

void StoreCluster::advance_time_us(double delta) {
  for (const auto& node : nodes_) node->store->advance_time_us(delta);
}

double StoreCluster::now_us() const { return nodes_.front()->store->now_us(); }

std::size_t StoreCluster::reclaim_retired_states() {
  std::size_t freed = 0;
  for (const auto& node : nodes_) freed += node->store->reclaim_retired_states();
  return freed;
}

std::size_t StoreCluster::retired_states() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node->store->retired_states();
  return n;
}

std::size_t ClusterRepublish::pump() {
  std::size_t written = 0;
  for (auto& s : sessions_) written += s.pump();
  return written;
}

bool ClusterRepublish::done() const {
  return std::all_of(sessions_.begin(), sessions_.end(),
                     [](const TrickleRepublish& s) { return s.done(); });
}

bool ClusterRepublish::mapping_swapped() const {
  return std::any_of(sessions_.begin(), sessions_.end(),
                     [](const TrickleRepublish& s) {
                       return s.mapping_swapped();
                     });
}

std::uint64_t ClusterRepublish::total_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.total_blocks();
  return n;
}

std::uint64_t ClusterRepublish::written_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.written_blocks();
  return n;
}

std::uint64_t ClusterRepublish::skipped_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.skipped_blocks();
  return n;
}

}  // namespace bandana
