// One embedding table inside a Bandana store: NVM-resident blocks plus a
// sharded DRAM vector cache with prefetch admission.
//
// Concurrency model: the vector universe is striped across N cache shards
// by *block* (shard_of(v) = block_of(v) % N), so a miss, its block read,
// and the prefetch admission of the block's other members all stay inside
// one shard — a lookup holds exactly one shard lock and concurrent
// requests to the same table proceed in parallel on different shards.
// lookup_get() serves a whole table-get with one lock acquisition per
// touched shard. Metrics are relaxed atomics (lock-free snapshot),
// published once per table-get; block-read dedup epochs are per-block and
// therefore shard-local too.
//
// The miss path costs what the paper says a miss costs: one block's bytes.
// A miss takes the block from the request's staged bytes when the store
// staged it, and otherwise from BlockStorage::view_block, so the memory
// backend lends the block in place and only the file backends copy it (into
// the shard's scratch). The vector and the admitted members are copied out
// of those bytes into their slab slots; nothing else is. What is cached,
// where, and which members a read admits is decided by the state's
// PrefetchCache (cache/prefetch_cache.h), the code simulate_cache runs.
//
// DRAM per vector is what a lookup needs: the layout's order and position
// (8 B), the access counts (4 B; mapping_snapshot and the manifest carry
// them), and the cache's 4-byte node index (cache/sharded_lru.h: a cached
// vector's slab slot is its node); the shadow policies add a second index.
// dram_bytes() counts it all by category; TablePolicy::cache_vectors buys
// only the slab, and never more of it than the table has vectors.
//
// Online retraining (§2.2) swaps the whole layout-dependent state — the
// block layout, the local-block -> global-block map and the cache core
// with its shard striping derived from the layout — as one unit:
// everything layout-dependent lives in an immutable-once-published State
// behind an atomic pointer. A lookup loads the pointer, locks the shard
// the state assigns its vector to, and re-validates the pointer under the
// lock; swap_state() installs a fresh State while holding every shard
// lock, so a lookup either completes entirely against the old state (whose
// storage blocks stay valid — a trickle republish writes replacement
// blocks elsewhere) or retries and completes entirely against the new one.
// No lookup ever observes a half-swapped mapping.
//
// The table never writes storage. Store writes a new table's blocks before
// the table is registered, and every later write goes to replacement
// blocks that become visible through swap_state, which only requires
// exclusion against other swaps (Store's shared storage lock + one trickle
// session per table).
//
// Retired states are reclaimed through reader epochs (common/epoch.h):
// every state-dereferencing reader holds an epoch guard across its state
// load and use, swap_state retires the old state and runs a reclaim pass,
// and a retired state is freed once no guard that could hold it remains.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/prefetch_cache.h"
#include "common/epoch.h"
#include "core/config.h"
#include "core/metrics.h"
#include "nvm/block_storage.h"
#include "partition/layout.h"
#include "trace/embedding_table.h"

namespace bandana {

/// Compose local block `b`'s bytes under `layout` from `values`
/// (zero-padded tail for a partial last block). The single definition of
/// block composition: Store's write waves and the trickle plan diff must
/// agree byte-for-byte or the diff would mis-classify blocks.
void compose_block_bytes(const BlockLayout& layout,
                         const EmbeddingTable& values, BlockId b,
                         std::size_t vector_bytes, std::span<std::byte> block);

/// Internal to Store. Owns the cache state of one table; block data lives in
/// the store-wide BlockStorage at the blocks named by the table's current
/// block map.
class BandanaTable {
 public:
  /// `block_map[b]` is the storage block holding local block b under
  /// `layout` (Store allocates it and writes the blocks; reopen recovers it
  /// from the manifest). The table writes nothing.
  BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
               BlockLayout layout, std::vector<std::uint32_t> access_counts,
               std::vector<BlockId> block_map);

  struct LookupOutcome {
    bool hit = false;
    BlockId block_read = 0;   ///< Valid when nvm_read is true.
    bool nvm_read = false;    ///< True if a block read was issued.
    bool unstaged = false;    ///< True if the lookup missed, the caller
                              ///< passed staged bytes, and its block was
                              ///< not among them: it was read inline.
  };

  /// Open a block-read dedup scope (one batched query, or one table's id
  /// lists within a multi-get request): lookups sharing the returned epoch
  /// count each block read once. Epochs are monotonic, and a block is
  /// "already read" when its mark is >= the scope's epoch — so when two
  /// concurrent scopes touch the same block, the later fetch coalesces
  /// with the earlier one instead of being double-counted.
  std::uint64_t begin_batch() {
    return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Serve one vector. Thread-safe: locks the vector's cache shard for the
  /// duration (re-validating the state pointer under the lock, so a
  /// concurrent swap_state makes it retry against the new mapping). On
  /// miss, consumes the block's bytes from `staged` when the request
  /// pre-fetched them (Store's batched read pipeline), otherwise reads the
  /// block from `storage` inline through view_block, under the shard lock
  /// and in request order (a block evicted between the request's staging
  /// peek and this lookup, truncated at the staging cap, or retargeted by
  /// a swap); either way the caller accounts device timing, and it keeps
  /// `storage` alive and unresized across the call (Store's shared storage
  /// lock). Admits prefetches per
  /// policy and caches the vector. The cache sees the same sequence of
  /// accesses whether or not, and however much, the request staged.
  LookupOutcome lookup(VectorId v, BlockStorage& storage,
                       std::span<std::byte> out, std::uint64_t epoch,
                       const StagedBlockReads* staged = nullptr);

  /// Serve one table-get: ids[i]'s bytes go to out[i * vector_bytes, ...)
  /// and its outcome to outcomes[i], exactly as a lookup() of each id in
  /// order would produce them. The batch takes one reader guard, buckets
  /// the ids by cache shard (keeping their order within each shard) and
  /// locks each touched shard once; everything a lookup touches is
  /// shard-local, so reordering across shards changes no byte, outcome,
  /// counter or cache order. A mapping swap caught under a shard lock
  /// sends the ids not yet served through the per-id retry path. Table
  /// metrics are summed locally and published once at the end, so a
  /// snapshot taken mid-get can lag the get's lookups.
  void lookup_get(std::span<const VectorId> ids, BlockStorage& storage,
                  std::span<std::byte> out, std::uint64_t epoch,
                  const StagedBlockReads* staged,
                  std::span<LookupOutcome> outcomes);

  /// True if v is currently cached. Takes the shard lock but never mutates
  /// LRU state — the staging pass peeks ahead of the real lookups to
  /// collect the blocks a request will miss on.
  bool is_cached(VectorId v) const;

  /// Store-wide block id that serves vector v under the current mapping.
  /// Lock-free snapshot: a concurrent swap may retarget v immediately
  /// after — the lookup then finds the new block unstaged and reads it
  /// inline.
  BlockId global_block_of(VectorId v) const {
    const auto guard = epochs_.enter();
    const State* st = state_.load(std::memory_order_seq_cst);
    return st->block_map[st->layout.block_of(v)];
  }

  /// A retrained table mapping, installable via swap_state: the new layout,
  /// the storage block backing each local block (unchanged blocks keep
  /// their old global block; changed blocks point at freshly written
  /// replacements), the refreshed per-vector access counts, and the
  /// (re-tuned) policy. The policy's cache_vectors must equal the current
  /// capacity — online retraining re-ranks and re-packs, it does not
  /// re-size DRAM (the slab is fixed at construction).
  struct RetrainedState {
    BlockLayout layout;
    std::vector<BlockId> block_map;
    std::vector<std::uint32_t> access_counts;
    TablePolicy policy;
  };

  /// Atomically install a retrained mapping. Builds the fresh
  /// layout-dependent state off to the side, then takes every shard lock,
  /// publishes the new state pointer and retires the old one (kept alive
  /// for stragglers that loaded the pointer before the swap — they retry
  /// under their shard lock and never mutate it). A new layout or policy
  /// starts the cache cold. A value-only push (same layout order, same
  /// policy) keeps it warm: the new state inherits the cache, shadow and
  /// slots, and drops only members of blocks whose storage block changed
  /// (a block keeps its storage block only if the plan diff proved its
  /// bytes unchanged, §4.2.2). Concurrent lookups are safe; the caller
  /// must exclude concurrent swap_state of this table (Store: one trickle
  /// session per table). Returns the old mapping's global blocks the new
  /// mapping no longer references, for Store's free list.
  std::vector<BlockId> swap_state(RetrainedState next);

  /// Snapshot of the current local-block -> global-block mapping.
  std::vector<BlockId> block_map() const;

  /// Copy of the table's entire current mapping (layout, block map, access
  /// counts, policy) as one consistent unit — what the manifest records per
  /// table. Safe against concurrent lookups; the caller must exclude
  /// concurrent swap_state (Store composes manifests under its manifest
  /// lock, which every shared-lock-path swap also takes).
  RetrainedState mapping_snapshot() const;

  /// Count vectors rewritten by an external republish path (the trickle
  /// session, which writes blocks itself and swaps at completion).
  void note_republished(std::uint64_t vectors) {
    metrics_.republish_writes.fetch_add(vectors, std::memory_order_relaxed);
  }

  std::uint32_t num_vectors() const { return num_vectors_; }
  std::uint32_t num_blocks() const { return num_blocks_; }
  /// Current layout / policy. References into the current state: the
  /// caller must hold exclusion against swap_state of this table (Store's
  /// unique storage lock, or the table's trickle claim) — a swapped-out
  /// state is reclaimed once no reader epoch can still hold it, so an
  /// unexcluded reference may dangle. Unlocked callers that only need the
  /// policy use policy_snapshot().
  const BlockLayout& layout() const {
    return state_.load(std::memory_order_acquire)->layout;
  }
  const TablePolicy& policy() const {
    return state_.load(std::memory_order_acquire)->policy;
  }
  /// By-value policy read, safe against concurrent swap + reclamation.
  TablePolicy policy_snapshot() const {
    const auto guard = epochs_.enter();
    return state_.load(std::memory_order_seq_cst)->policy;
  }
  std::size_t vector_bytes() const { return vector_bytes_; }

  std::uint32_t num_shards() const { return num_shards_; }

  /// Lock-free snapshot of the per-shard counters, aggregated on read.
  TableMetrics metrics() const { return metrics_.snapshot(); }

  /// Cache occupancy/traffic of one shard (taken under that shard's lock).
  CacheShardStats shard_stats(std::uint32_t s) const;
  /// Aggregate over all shards.
  CacheShardStats cache_stats() const;

  /// Cached ids, shard by shard, each MRU->LRU (test/diagnostic; takes the
  /// shard locks). With one shard this is the exact LRU eviction order.
  std::vector<VectorId> cache_contents() const;

  /// Run one reclaim pass (ReaderEpochs::try_reclaim), freeing retired
  /// states no reader can still hold. Returns states freed. swap_state
  /// runs a pass automatically; long-lived serving loops (or tests) call
  /// this to drain stragglers from earlier swaps.
  std::size_t reclaim_retired() { return epochs_.try_reclaim(); }

  /// Retired states still awaiting reclamation (diagnostic).
  std::size_t retired_count() const { return epochs_.retired(); }

  /// The table's DRAM by category (core/metrics.h; storage_buffers is
  /// the store's): the current state's index, layout, admission and block
  /// map bytes, the slab, the shard scratch and retired states. Safe
  /// against concurrent lookups and swaps.
  DramBytes dram_bytes() const;

 private:
  /// Everything derived from one (layout, block map, policy) triple.
  /// Published at a whole-struct granularity: built, then installed with
  /// an atomic pointer store under all shard locks; never mutated except
  /// through a shard lock of the *current* state. Retired states stay
  /// allocated so a reader that loaded the pointer just before a swap can
  /// still dereference it (it will fail the under-lock re-validation and
  /// retry — it never writes through a retired state).
  struct State {
    BlockLayout layout;
    std::vector<BlockId> block_map;   ///< local block -> storage block
    std::vector<std::uint32_t> access_counts;
    TablePolicy policy;
    /// Over `layout`, with admit bits from this state's counts and policy.
    /// A cached vector's slab slot is its node in the cache's pool, whose
    /// shard s owns the slots from the sum of the earlier shards' slots.
    PrefetchCache cache;
    std::vector<std::uint64_t> block_epochs;  ///< per-block dedup marks

    State(BlockLayout l, std::vector<BlockId> bm,
          std::vector<std::uint32_t> ac, TablePolicy p,
          std::uint32_t num_shards)
        : layout(std::move(l)),
          block_map(std::move(bm)),
          access_counts(std::move(ac)),
          policy(p),
          cache(layout, p.cache_policy(), access_counts, num_shards),
          block_epochs(layout.num_blocks(), 0) {}

    /// The state's categories of BandanaTable::dram_bytes.
    DramBytes dram_bytes() const;
  };

  /// Per-shard lock + scratch. The mutex array is fixed for the table's
  /// lifetime (states swap underneath it).
  struct Shard {
    std::mutex mu;
    /// view_block scratch: one block once a backend that copies (a file
    /// backend) served this shard a miss; empty on memory storage.
    std::vector<std::byte> block_buf;
  };

  std::unique_ptr<State> make_state(TablePolicy policy, BlockLayout layout,
                                    std::vector<std::uint32_t> access_counts,
                                    std::vector<BlockId> block_map) const;
  /// One lookup under its shard's lock; counters land in `counts`, which
  /// lookup_get publishes once per table-get.
  LookupOutcome lookup_locked(State& st, std::uint32_t shard_idx, VectorId v,
                              BlockStorage& storage, std::span<std::byte> out,
                              std::uint64_t epoch,
                              const StagedBlockReads* staged,
                              TableMetrics& counts);
  std::span<std::byte> slot_bytes(std::uint32_t slot);

  std::uint32_t num_vectors_;
  std::uint32_t num_blocks_;
  std::size_t vector_bytes_;
  std::size_t block_bytes_;
  std::uint32_t vectors_per_block_;
  std::uint32_t num_shards_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The cache's slots * vector_bytes, fixed at construction (a swap keeps
  /// the capacity, shards and size, so every state's slots index the same
  /// slab).
  std::vector<std::byte> slab_;
  std::atomic<std::uint64_t> epoch_{0};

  std::unique_ptr<State> state_owner_;
  std::atomic<State*> state_;

  /// Guards every state dereference; swapped-out states retire here.
  ReaderEpochs epochs_;

  AtomicTableMetrics metrics_;
};

}  // namespace bandana
