// Sharded insertion-position LRU (paper §4.3.1, intra-table concurrency).
//
// Each shard is one LRU list with K insertion points, K segments delimited
// by marker nodes: inserting at point j places the entry at depth
// floor(f_j * C) of the shard's capacity C, so a prefetched vector can
// enter below hot data; a hit promotes to MRU, eviction takes the tail.
// A dense vector-id universe is striped across N shards so concurrent
// lookups on different shards never contend. Capacity is split across
// shards proportionally to each shard's slice of the universe
// (largest-remainder rounding), so aggregate hit rates track the unsharded
// cache on skewed workloads.
//
// One index serves every shard: a 4-byte node index per vector into one
// node pool, allocated at construction and never grown. Shard s owns the
// contiguous entry nodes [first, first + its slots), where its slots are
// the fewer of its capacity and its ids (a shard whose capacity exceeds
// its ids never fills, so entries past them would never be used) and
// `first` sums the earlier shards' slots. An entry's node index doubles as
// its slot in a caller's slab of slots() entries (slot_of).
// Each node carries its id, its segment and a prefetched mark. The class
// stores no id -> shard map: the caller names the shard of every
// mutation, and must name the same shard for an id every time
// (PrefetchCache stripes by block: shard = block_of(v) % N). A shard
// reuses its LRU tail's node for the entry that evicts it, and chains
// erased nodes into a free list through their `next` links.
//
// With one shard this class is byte-identical to the seed's InsertionLru
// (tests/insertion_lru.h): same hits, victims and MRU→LRU order.
//
// Not thread-safe: the caller (BandanaTable) holds one lock per shard and
// must hold shard s's lock around any operation that names s, and around
// contains / slot_of / take_prefetched of an id in s. Whole-cache
// accessors (contents, size, rollup) are for tests and diagnostics and
// expect external quiescence.
#pragma once

#include <cstdint>
#include <vector>

#include "common/field_table.h"
#include "common/types.h"

namespace bandana {

#define BANDANA_CACHE_SHARD_STATS_FIELDS(F) \
  F(std::uint64_t, size, sum)               \
  F(std::uint64_t, capacity, sum)           \
  F(std::uint64_t, accesses, sum)           \
  F(std::uint64_t, hits, sum)               \
  F(std::uint64_t, inserts, sum)            \
  F(std::uint64_t, evictions, sum)

/// Per-shard occupancy and traffic counters (aggregate with operator+=).
struct CacheShardStats {
  BANDANA_FIELD_STRUCT(CacheShardStats, BANDANA_CACHE_SHARD_STATS_FIELDS)
};

class ShardedInsertionLru {
 public:
  /// Node indexes are 32-bit: capacity() plus the markers stay below this.
  static constexpr std::uint64_t kNodeLimit = 0xFFFFFFFF;

  /// `shard_sizes[s]` is how many ids of the universe shard s serves; the
  /// sizes must sum to `universe`. Empty means one shard (the unsharded
  /// seed layout). `capacity` is the total entry budget; every shard
  /// receives at least 1 entry, so the effective total (see capacity())
  /// can exceed the request when capacity < number of shards.
  ShardedInsertionLru(std::uint32_t universe, std::uint64_t capacity,
                      std::vector<double> insertion_points = {0.0},
                      std::vector<std::uint32_t> shard_sizes = {});

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::size_t num_insertion_points() const { return num_segments_; }

  /// Sum of per-shard capacities (== requested capacity unless clamped up).
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t shard_capacity(std::uint32_t s) const {
    return shards_[s].stats.capacity;
  }
  /// Entry nodes in the pool: the most entries the cache can ever hold,
  /// capacity() or fewer when some shard's capacity exceeds its ids.
  std::uint64_t slots() const { return entries_; }

  bool contains(VectorId v) const { return node_of_[v] != kNil; }
  /// Slot of cached v in [0, slots()): its node index, inside its shard's
  /// range. Stable until v leaves the cache.
  std::uint32_t slot_of(VectorId v) const { return node_of_[v]; }

  /// If v is cached in shard s: promote to s's MRU position, return true.
  bool access(std::uint32_t s, VectorId v);
  /// Insert v (not cached) into shard s at insertion point `point`
  /// (default: MRU), marked prefetched or not. Returns the evicted victim,
  /// or kInvalidVector if none; v takes over the victim's slot.
  VectorId insert(std::uint32_t s, VectorId v, std::size_t point = 0,
                  bool prefetched = false);
  /// Remove v from shard s (e.g. on a table republish). False if absent.
  bool erase(std::uint32_t s, VectorId v);
  /// Clear cached v's prefetched mark; returns whether it was set.
  bool take_prefetched(VectorId v) {
    Node& n = nodes_[node_of_[v]];
    const bool was = n.prefetched != 0;
    n.prefetched = 0;
    return was;
  }

  /// Occupancy + counters of one shard (caller holds that shard's lock).
  CacheShardStats shard_stats(std::uint32_t s) const;
  /// Aggregate over all shards (diagnostic; expects quiescence).
  CacheShardStats rollup() const;

  /// Whole-cache size / contents (tests; expect quiescence). contents()
  /// concatenates shards in index order, each MRU→LRU; with one shard this
  /// is the exact eviction order.
  std::uint64_t size() const;
  std::vector<VectorId> contents() const;
  std::vector<VectorId> shard_contents(std::uint32_t s) const;

  /// Heap bytes of the index: the per-id node index, the node pool and the
  /// per-shard segment bookkeeping. Fixed at construction.
  std::uint64_t dram_bytes() const;

 private:
  using NodeIdx = std::uint32_t;
  static constexpr NodeIdx kNil = kNodeLimit;

  /// 16 bytes. Entry nodes come first in the pool; every shard's segment
  /// head markers and end sentinel follow them.
  struct Node {
    NodeIdx prev = kNil;
    NodeIdx next = kNil;
    VectorId id = kInvalidVector;
    std::uint16_t segment = 0;
    std::uint8_t prefetched = 0;
  };
  struct Segment {
    std::uint64_t size = 0;
    std::uint64_t target = 0;  ///< Capacity of the segment.
  };
  struct Shard {
    NodeIdx first = 0;    ///< First entry node (slot) of the shard.
    NodeIdx slots = 0;    ///< Its entry nodes: min(capacity, its ids).
    NodeIdx used = 0;     ///< Entry nodes handed out so far.
    NodeIdx free = kNil;  ///< Erased entry nodes, chained via next.
    CacheShardStats stats;  ///< Live size and capacity, and counters.
  };

  bool is_marker(NodeIdx n) const { return n >= entries_; }
  /// Shard s's head marker of segment k; k == num_segments_ is its end
  /// sentinel.
  NodeIdx marker(std::uint32_t s, std::size_t k) const {
    return entries_ + static_cast<NodeIdx>(s * (num_segments_ + 1) + k);
  }
  Segment& segment(std::uint32_t s, std::size_t k) {
    return segments_[s * num_segments_ + k];
  }
  void link_after(NodeIdx pos, NodeIdx node);
  void unlink(NodeIdx node);
  /// Push overflow from shard s's segment k downward toward the tail.
  void cascade(std::uint32_t s, std::size_t k);

  std::size_t num_segments_;
  std::uint64_t capacity_ = 0;  ///< Sum of the shards' capacities.
  NodeIdx entries_ = 0;         ///< Entry nodes in the pool (slots()).
  std::vector<NodeIdx> node_of_;  ///< id -> node, or kNil
  std::vector<Node> nodes_;
  std::vector<Segment> segments_;  ///< shard-major, num_segments_ each
  std::vector<Shard> shards_;
};

}  // namespace bandana
