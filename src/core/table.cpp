#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace bandana {

namespace {
/// Shard count for the table: one per hardware thread by default, but
/// never more shards than blocks (vectors are striped by block, keeping
/// prefetch admission shard-local) or cache entries (every shard needs at
/// least one slot without inflating the DRAM budget). Fixed at
/// construction: layout swaps keep num_blocks and capacity, so the clamp
/// is invariant.
std::uint32_t shard_count_for(const StoreConfig& cfg,
                              const TablePolicy& policy,
                              const BlockLayout& layout) {
  const std::uint64_t capacity =
      std::max<std::uint64_t>(1, policy.cache_vectors);
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, std::min({static_cast<std::uint64_t>(cfg.resolved_cache_shards()),
                   static_cast<std::uint64_t>(layout.num_blocks()),
                   capacity})));
}
}  // namespace

std::unique_ptr<BandanaTable::State> BandanaTable::make_state(
    TablePolicy policy, BlockLayout layout,
    std::vector<std::uint32_t> access_counts,
    std::vector<BlockId> block_map) const {
  if (layout.num_vectors() != num_vectors_ ||
      layout.vectors_per_block() != vectors_per_block_) {
    throw std::invalid_argument("table state: layout shape mismatch");
  }
  if (block_map.size() != layout.num_blocks()) {
    throw std::invalid_argument("table state: block map size mismatch");
  }
  return std::make_unique<State>(std::move(layout), std::move(block_map),
                                 std::move(access_counts), policy,
                                 num_shards_);
}

DramBytes BandanaTable::State::dram_bytes() const {
  DramBytes d;
  d.cache_index = cache.lru().dram_bytes();
  d.shadow_index = cache.shadow_dram_bytes();
  d.layout = layout.dram_bytes();
  d.admission = access_counts.capacity() * sizeof(std::uint32_t) +
                cache.admit_bits_dram_bytes();
  d.block_maps = block_map.capacity() * sizeof(BlockId) +
                 block_epochs.capacity() * sizeof(std::uint64_t);
  return d;
}

DramBytes BandanaTable::dram_bytes() const {
  const auto guard = epochs_.enter();
  DramBytes d = state_.load(std::memory_order_seq_cst)->dram_bytes();
  d.slab = slab_.capacity();
  for (const auto& shard : shards_) {
    // A lookup sizes its shard's scratch on the first copying read.
    std::lock_guard lock(shard->mu);
    d.staging += shard->block_buf.capacity();
  }
  d.retired_states = epochs_.retired_bytes();
  return d;
}

BandanaTable::BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
                           BlockLayout layout,
                           std::vector<std::uint32_t> access_counts,
                           std::vector<BlockId> block_map)
    : num_vectors_(layout.num_vectors()),
      num_blocks_(layout.num_blocks()),
      vector_bytes_(store_cfg.vector_bytes),
      block_bytes_(store_cfg.block_bytes),
      vectors_per_block_(store_cfg.vectors_per_block()),
      num_shards_(shard_count_for(store_cfg, policy, layout)) {
  if (store_cfg.block_bytes % store_cfg.vector_bytes != 0) {
    throw std::invalid_argument("vector_bytes must divide block_bytes");
  }
  if (layout.vectors_per_block() != vectors_per_block_) {
    throw std::invalid_argument("layout block size mismatch");
  }
  state_owner_ = make_state(policy, std::move(layout),
                            std::move(access_counts), std::move(block_map));
  state_.store(state_owner_.get(), std::memory_order_release);

  slab_.resize(state_owner_->cache.lru().slots() * vector_bytes_);
  shards_.reserve(num_shards_);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void compose_block_bytes(const BlockLayout& layout,
                         const EmbeddingTable& values, BlockId b,
                         std::size_t vector_bytes,
                         std::span<std::byte> block) {
  std::memset(block.data(), 0, block.size());
  const auto members = layout.block_members(b);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto src = values.vector_bytes_view(members[i]);
    std::memcpy(block.data() + i * vector_bytes, src.data(), vector_bytes);
  }
}

std::span<std::byte> BandanaTable::slot_bytes(std::uint32_t slot) {
  return {slab_.data() + std::size_t{slot} * vector_bytes_, vector_bytes_};
}

std::vector<BlockId> BandanaTable::swap_state(RetrainedState next) {
  State& cur = *state_owner_;
  if (next.policy.cache_vectors != cur.policy.cache_vectors) {
    throw std::invalid_argument(
        "swap_state: online retraining must keep the table's DRAM capacity "
        "(the slab is fixed at construction)");
  }
  const bool keep_cache = next.policy == cur.policy &&
                          next.layout.order() == cur.layout.order();
  auto fresh =
      make_state(next.policy, std::move(next.layout),
                 std::move(next.access_counts), std::move(next.block_map));

  // Global blocks only the old mapping referenced become reusable (the
  // store's free list) once the new state is visible.
  std::unordered_set<BlockId> kept(fresh->block_map.begin(),
                                   fresh->block_map.end());
  std::vector<BlockId> freed;
  for (const BlockId g : cur.block_map) {
    if (kept.find(g) == kept.end()) freed.push_back(g);
  }

  // Install under every shard lock (index order; lookups hold exactly one
  // shard lock, so no ordering hazard). A lookup that loaded the old state
  // pointer re-validates it under its shard lock and retries — it never
  // mutates the retired state.
  std::unique_ptr<State> old;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& shard : shards_) locks.emplace_back(shard->mu);
    assert(fresh->cache.lru().slots() * vector_bytes_ == slab_.size());
    if (keep_cache) {
      // Value-only push: cached members of blocks that kept their storage
      // block still hold exact bytes in their slots. Copied, not moved —
      // stragglers may still peek the retired state. The new state keeps
      // the admit bits of its own counts.
      fresh->cache.copy_entries_from(cur.cache);
      for (BlockId b = 0; b < fresh->layout.num_blocks(); ++b) {
        if (fresh->block_map[b] != cur.block_map[b]) fresh->cache.drop_block(b);
      }
    }
    old = std::move(state_owner_);
    state_owner_ = std::move(fresh);
    // seq_cst pairs with the reader guards' enter + state load
    // (common/epoch.h): a reader no reclaim pass sees entered loads the
    // NEW state, never the one retired here.
    state_.store(state_owner_.get(), std::memory_order_seq_cst);
  }
  // Retire outside the shard locks and immediately run a reclaim pass:
  // with no straggling readers the old state is freed right here, and
  // under load it goes on a later pass.
  const std::uint64_t old_bytes = old->dram_bytes().total();
  epochs_.retire(std::move(old), old_bytes);
  epochs_.try_reclaim();
  return freed;
}

std::vector<BlockId> BandanaTable::block_map() const {
  const auto guard = epochs_.enter();
  const State* st = state_.load(std::memory_order_seq_cst);
  return st->block_map;
}

BandanaTable::RetrainedState BandanaTable::mapping_snapshot() const {
  const auto guard = epochs_.enter();
  const State* st = state_.load(std::memory_order_seq_cst);
  return {st->layout, st->block_map, st->access_counts, st->policy};
}

bool BandanaTable::is_cached(VectorId v) const {
  assert(v < num_vectors_);
  // Read-only peek: a state retired between the load and the lock is never
  // mutated again, so its answer is merely stale (a lookup whose block the
  // stale answer left unstaged reads it inline).
  // The guard keeps a just-retired state alive across the deref.
  const auto guard = epochs_.enter();
  const State* st = state_.load(std::memory_order_seq_cst);
  std::lock_guard lock(shards_[st->cache.shard_of(v)]->mu);
  return st->cache.lru().contains(v);
}

BandanaTable::LookupOutcome BandanaTable::lookup(
    VectorId v, BlockStorage& storage, std::span<std::byte> out,
    std::uint64_t epoch, const StagedBlockReads* staged) {
  LookupOutcome outcome;
  lookup_get({&v, 1}, storage, out, epoch, staged, {&outcome, 1});
  return outcome;
}

void BandanaTable::lookup_get(std::span<const VectorId> ids,
                              BlockStorage& storage, std::span<std::byte> out,
                              std::uint64_t epoch,
                              const StagedBlockReads* staged,
                              std::span<LookupOutcome> outcomes) {
  assert(out.size() >= ids.size() * vector_bytes_);
  assert(outcomes.size() >= ids.size());
  const std::size_t n = ids.size();
  if (n == 0) return;
  TableMetrics counts;
  const auto serve = [&](State& st, std::uint32_t s, std::size_t i) {
    assert(ids[i] < num_vectors_);
    outcomes[i] = lookup_locked(st, s, ids[i], storage,
                                out.subspan(i * vector_bytes_, vector_bytes_),
                                epoch, staged, counts);
  };
  // The guard spans the whole get: every state pointer loaded below stays
  // alive until we return, even if a concurrent swap retires it and a
  // reclaim pass runs before we reach a shard lock.
  const auto guard = epochs_.enter();
  State* st = state_.load(std::memory_order_seq_cst);

  // Everything a lookup touches — the cache entry, the block, its other
  // members, the shadow entry, the slab slots — lives in the one shard the
  // state's layout assigns the id to. Group the ids by shard with a stable
  // counting sort: order[] lists id indices shard by shard, and
  // bucket_end[s] is where shard s's group ends.
  thread_local std::vector<std::uint32_t> shard;
  thread_local std::vector<std::uint32_t> order;
  thread_local std::vector<std::uint32_t> bucket_end;
  shard.resize(n);
  order.resize(n);
  bucket_end.assign(num_shards_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    shard[i] = st->cache.shard_of(ids[i]);
    ++bucket_end[shard[i]];
  }
  std::uint32_t start = 0;
  for (auto& e : bucket_end) {  // sizes -> starts
    const std::uint32_t size = e;
    e = start;
    start += size;
  }
  for (std::size_t i = 0; i < n; ++i) {  // starts -> ends
    order[bucket_end[shard[i]]++] = static_cast<std::uint32_t>(i);
  }

  std::size_t served = 0;  // prefix of order[] already served
  try {
    for (std::uint32_t s = 0; s < num_shards_ && served < n; ++s) {
      const std::size_t end = bucket_end[s];
      if (served == end) continue;
      std::lock_guard lock(shards_[s]->mu);
      // Re-validate under the lock: swap_state publishes the new state
      // while holding every shard lock, so a stale pointer here means the
      // swap fully completed and may have re-striped the ids. Nothing of
      // this group was mutated yet; the rest of the get retries per id.
      if (state_.load(std::memory_order_acquire) != st) break;
      for (; served < end; ++served) serve(*st, s, order[served]);
    }
    for (; served < n; ++served) {
      const std::size_t i = order[served];
      for (;;) {
        st = state_.load(std::memory_order_acquire);
        const std::uint32_t s = st->cache.shard_of(ids[i]);
        std::lock_guard lock(shards_[s]->mu);
        if (state_.load(std::memory_order_acquire) != st) continue;
        serve(*st, s, i);
        break;
      }
    }
  } catch (...) {
    // A failing block read still leaves the lookups before it counted.
    metrics_.add(counts);
    throw;
  }
  metrics_.add(counts);
}

BandanaTable::LookupOutcome BandanaTable::lookup_locked(
    State& st, std::uint32_t shard_idx, VectorId v, BlockStorage& storage,
    std::span<std::byte> out, std::uint64_t epoch,
    const StagedBlockReads* staged, TableMetrics& counts) {
  LookupOutcome outcome;
  ++counts.lookups;
  counts.app_bytes_served += vector_bytes_;

  // A hit reads v's node index, its node and its slab slot; only a miss
  // reads the block map.
  const PrefetchCache::Access access = st.cache.access(shard_idx, v);
  if (access != PrefetchCache::Access::kMiss) {
    ++counts.hits;
    outcome.hit = true;
    if (access == PrefetchCache::Access::kPrefetchHit) ++counts.prefetch_hits;
    std::memcpy(out.data(), slot_bytes(st.cache.lru().slot_of(v)).data(),
                vector_bytes_);
    return outcome;
  }

  // Miss: fetch the block (the epoch mark is shard-local because blocks
  // never span shards). ">=" rather than "==": a mark left by a *newer*
  // concurrent scope means the block was just fetched, so this scope's
  // read coalesces with it instead of being re-counted (and re-admitted).
  Shard& shard = *shards_[shard_idx];
  const BlockId local_b = st.layout.block_of(v);
  const BlockId global_b = st.block_map[local_b];
  counts.miss_bytes += vector_bytes_;
  const bool already_read = st.block_epochs[local_b] >= epoch;
  // The request's staging pass usually holds this block's bytes (one
  // batched overlapped read for the whole request). A block it missed is
  // read inline, here, so the cache sees this lookup in request order. The
  // view lives only until this lookup returns: the caller's storage lock
  // excludes growth, and the shard lock excludes the swap that could free
  // the block for reuse.
  std::span<const std::byte> block_bytes;
  if (staged != nullptr) {
    block_bytes = staged->find(global_b);
    outcome.unstaged = block_bytes.empty();
  }
  if (block_bytes.empty()) {
    block_bytes = storage.view_block(global_b, shard.block_buf);
  }
  if (!already_read) {
    st.block_epochs[local_b] = epoch;
    ++counts.nvm_block_reads;
    counts.nvm_bytes_read += block_bytes_;
    outcome.nvm_read = true;
    outcome.block_read = global_b;
  }

  // The vector and every member the cache admits are copied into their
  // slab slots (a cached vector's node is its slot).
  const auto member = [&](std::size_t i) {
    return block_bytes.subspan(i * vector_bytes_, vector_bytes_).data();
  };
  std::memcpy(out.data(),
              member(st.layout.position_of(v) % vectors_per_block_),
              vector_bytes_);
  counts.prefetch_inserted += st.cache.miss(
      shard_idx, v, local_b, !already_read,
      [&](std::uint32_t slot, std::size_t i) {
        std::memcpy(slot_bytes(slot).data(), member(i), vector_bytes_);
      });
  return outcome;
}

CacheShardStats BandanaTable::shard_stats(std::uint32_t s) const {
  const auto guard = epochs_.enter();
  const State* st = state_.load(std::memory_order_seq_cst);
  std::lock_guard lock(shards_[s]->mu);
  return st->cache.lru().shard_stats(s);
}

CacheShardStats BandanaTable::cache_stats() const {
  CacheShardStats total;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    total += shard_stats(s);
  }
  return total;
}

std::vector<VectorId> BandanaTable::cache_contents() const {
  const auto guard = epochs_.enter();
  const State* st = state_.load(std::memory_order_seq_cst);
  std::vector<VectorId> out;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s]->mu);
    const auto shard = st->cache.lru().shard_contents(s);
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

}  // namespace bandana
