#include "cluster/rebalance.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace bandana {

namespace detail {
/// One in-flight range migration. begin_rebalance claims the donor's local
/// table (freezing its mapping), snapshots it, and reserves + commits the
/// target install; pump() calls then relay waves under `mu`. The relay
/// buffer holds ONE wave of block images, so session DRAM is O(wave) while
/// the move may be O(range).
struct RebalanceState {
  explicit RebalanceState(const RepublishConfig& rate) : limiter(rate) {}

  StoreCluster* cluster = nullptr;
  TableId table = 0;
  std::size_t range_idx = 0;
  std::uint32_t replica = 0;
  std::uint32_t donor = 0;
  std::uint32_t target = 0;
  TableId donor_local = 0;
  TableId target_local = 0;  ///< Valid once completed.
  std::optional<TableInstall> install;
  TrickleRateLimiter limiter;
  std::uint64_t total = 0;     ///< Blocks in the migrating range.
  std::uint64_t streamed = 0;  ///< Blocks relayed so far.
  std::uint64_t waves = 0;
  bool completed = false;
  std::vector<std::byte> buf;  ///< Relay buffer, one wave of images.
  mutable std::mutex mu;       ///< serializes pump/done/stat reads
};
}  // namespace detail

namespace {
/// Cap on blocks relayed per pump (16 MB of 4 KB blocks): bounds the relay
/// buffer when the limiter is unlimited or its interval budget is huge.
constexpr std::uint64_t kMaxRelayWaveBlocks = 4096;
}  // namespace

RebalanceSession StoreCluster::begin_rebalance(TableId t,
                                               std::size_t range_idx,
                                               std::uint32_t replica,
                                               std::uint32_t target_node,
                                               const RepublishConfig& rate) {
  // One session per cluster at a time: the flag also freezes the placement
  // (flips only happen inside a session's completion), so reading it
  // directly below is safe.
  if (rebalance_active_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error(
        "begin_rebalance: a rebalance session is already active");
  }
  try {
    const PlacementMap& pm = placement();
    if (t >= pm.tables.size()) {
      throw std::out_of_range("begin_rebalance: bad table id " +
                              std::to_string(t));
    }
    if (range_idx >= pm.tables[t].size()) {
      throw std::out_of_range("begin_rebalance: bad range index " +
                              std::to_string(range_idx));
    }
    const PlacementMap::Range& r = pm.tables[t][range_idx];
    if (replica >= r.nodes.size()) {
      throw std::out_of_range("begin_rebalance: bad replica " +
                              std::to_string(replica));
    }
    if (target_node >= num_nodes()) {
      throw std::out_of_range("begin_rebalance: bad target node " +
                              std::to_string(target_node));
    }
    const std::uint32_t donor = r.nodes[replica];
    if (donor == target_node) {
      throw std::invalid_argument("begin_rebalance: self-move");
    }
    for (const std::uint32_t hosting : r.nodes) {
      if (hosting == target_node) {
        throw std::invalid_argument(
            "begin_rebalance: target already hosts a replica of this range");
      }
    }
    const TableId donor_local = r.local_ids[replica];
    Store& donor_store = node(donor);
    donor_store.claim_table_for_migration(donor_local);
    try {
      // The claim freezes the donor mapping, so this snapshot — and the
      // block indices the stream reads — stay accurate for the whole move.
      BandanaTable::RetrainedState snap =
          donor_store.migration_snapshot(donor_local);
      auto s = std::make_unique<detail::RebalanceState>(rate);
      s->cluster = this;
      s->table = t;
      s->range_idx = range_idx;
      s->replica = replica;
      s->donor = donor;
      s->target = target_node;
      s->donor_local = donor_local;
      s->total = snap.layout.num_blocks();
      // Reserves the target's storage and commits its pending-install
      // record before any byte moves (core/store.h crash ordering).
      s->install.emplace(node(target_node).begin_table_install(
          std::move(snap.layout), snap.policy, std::move(snap.access_counts)));
      return RebalanceSession(std::move(s));
    } catch (...) {
      donor_store.release_table_claim(donor_local);
      throw;
    }
  } catch (...) {
    rebalance_active_.store(false, std::memory_order_release);
    throw;
  }
}

RebalanceSession::RebalanceSession(
    std::unique_ptr<detail::RebalanceState> state)
    : state_(std::move(state)) {}

RebalanceSession::RebalanceSession(RebalanceSession&& other) noexcept = default;

RebalanceSession& RebalanceSession::operator=(
    RebalanceSession&& other) noexcept {
  if (this != &other) {
    abandon();
    state_ = std::move(other.state_);
  }
  return *this;
}

RebalanceSession::~RebalanceSession() { abandon(); }

void RebalanceSession::abandon() noexcept {
  if (!state_) return;
  try {
    detail::RebalanceState& s = *state_;
    std::lock_guard lock(s.mu);
    if (s.completed) return;
    // Unwind in reverse begin order: the target install abandons (its
    // reserved blocks return to the free list; a durable pending record a
    // dead backend can't drop is reclaimed at reopen), the donor's claim
    // releases (it never stopped serving), and the cluster slot frees.
    s.install.reset();
    s.cluster->node(s.donor).release_table_claim(s.donor_local);
    s.cluster->rebalance_active_.store(false, std::memory_order_release);
    s.completed = true;
  } catch (...) {
    // Destructor context: a leaked claim or cluster slot beats crashing.
  }
}

std::size_t RebalanceSession::pump() {
  if (!state_) return 0;
  detail::RebalanceState& s = *state_;
  std::lock_guard lock(s.mu);
  if (s.completed) return 0;
  StoreCluster& c = *s.cluster;
  std::uint64_t n = 0;
  if (s.streamed < s.total) {
    Store& donor = c.node(s.donor);
    const double now = donor.now_us();
    n = std::min<std::uint64_t>(s.limiter.allowance(now),
                                s.total - s.streamed);
    n = std::min(n, kMaxRelayWaveBlocks);
    if (n == 0) return 0;  // rate-limited: caller advances the clock
    const std::size_t bb = c.config().store.block_bytes;
    s.buf.resize(static_cast<std::size_t>(n) * bb);
    // Donor batched read-out, target batched write-in — each side chunks
    // to its own admission wave and accounts the I/O open-loop on its own
    // engine, so the migration contends with serving on both nodes.
    donor.read_table_blocks(s.donor_local,
                            static_cast<std::uint32_t>(s.streamed),
                            static_cast<std::uint32_t>(n), s.buf);
    s.install->write_blocks(static_cast<std::uint32_t>(s.streamed), s.buf);
    s.limiter.consume(now, n);
    s.streamed += n;
    ++s.waves;
  }
  if (s.streamed == s.total) {
    // Completion, in crash-safe durability order (file comment): target
    // finish commit, then the lease-drained placement flip, then — only
    // once no request can still route to it — the donor retire commit.
    s.target_local = s.install->finish();
    c.flip_range(s.table, s.range_idx, s.replica, s.target, s.target_local);
    c.node(s.donor).retire_table(s.donor_local);
    c.rebalance_active_.store(false, std::memory_order_release);
    s.completed = true;
  }
  return static_cast<std::size_t>(n);
}

void RebalanceSession::run_to_completion() {
  while (!done()) {
    if (pump() == 0 && !done()) {
      const RepublishConfig& rate = state_->limiter.config();
      state_->cluster->advance_time_us(
          rate.interval_us > 0.0 ? rate.interval_us : 1000.0);
    }
  }
}

bool RebalanceSession::done() const {
  if (!state_) return true;
  std::lock_guard lock(state_->mu);
  return state_->completed;
}

TableId RebalanceSession::table() const {
  return state_ ? state_->table : TableId{0};
}

std::size_t RebalanceSession::range_index() const {
  return state_ ? state_->range_idx : 0;
}

std::uint32_t RebalanceSession::replica() const {
  return state_ ? state_->replica : 0;
}

std::uint32_t RebalanceSession::donor() const {
  return state_ ? state_->donor : 0;
}

std::uint32_t RebalanceSession::target() const {
  return state_ ? state_->target : 0;
}

TableId RebalanceSession::target_local() const {
  if (!state_) return TableId{0};
  std::lock_guard lock(state_->mu);
  return state_->target_local;
}

std::uint64_t RebalanceSession::total_blocks() const {
  return state_ ? state_->total : 0;
}

std::uint64_t RebalanceSession::streamed_blocks() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->streamed;
}

std::uint64_t RebalanceSession::waves() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->waves;
}

double Rebalancer::node_load(std::uint32_t n) const {
  const TableMetrics tm = cluster_.node(n).total_metrics();
  return static_cast<double>(tm.lookups) +
         cfg_.miss_weight * static_cast<double>(tm.nvm_block_reads) +
         static_cast<double>(cluster_.node_outstanding(n));
}

std::optional<MoveProposal> Rebalancer::propose() const {
  const std::uint32_t n = cluster_.num_nodes();
  if (n < 2) return std::nullopt;
  std::vector<double> load(n);
  for (std::uint32_t i = 0; i < n; ++i) load[i] = node_load(i);
  std::uint32_t donor = 0, target = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (load[i] > load[donor]) donor = i;
    if (load[i] < load[target]) target = i;
  }
  if (donor == target) return std::nullopt;
  if (load[donor] < cfg_.skew_threshold * std::max(load[target], 1.0)) {
    return std::nullopt;
  }
  if (cluster_.node(donor).total_metrics().lookups < cfg_.min_donor_lookups) {
    return std::nullopt;
  }
  // Hottest movable range hosted by the donor: a range is movable when no
  // replica of it already lives on the target.
  const StoreCluster::PlacementLease lease = cluster_.placement_lease();
  const PlacementMap& pm = lease.map();
  std::optional<MoveProposal> best;
  std::uint64_t best_heat = 0;
  for (TableId t = 0; t < pm.tables.size(); ++t) {
    for (std::size_t ri = 0; ri < pm.tables[t].size(); ++ri) {
      const PlacementMap::Range& r = pm.tables[t][ri];
      bool covers_target = false;
      for (const std::uint32_t hosting : r.nodes) {
        covers_target |= hosting == target;
      }
      if (covers_target) continue;
      for (std::uint32_t rep = 0; rep < r.replicas(); ++rep) {
        if (r.nodes[rep] != donor) continue;
        const std::uint64_t heat =
            cluster_.node(donor).table_metrics(r.local_ids[rep]).lookups;
        if (!best || heat > best_heat) {
          best = MoveProposal{t,     ri,           rep,
                              donor, target,       load[donor],
                              load[target]};
          best_heat = heat;
        }
      }
    }
  }
  return best;
}

}  // namespace bandana
