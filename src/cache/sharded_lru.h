// Sharded insertion-position LRU (intra-table cache concurrency).
//
// Stripes a dense vector-id universe across N independent InsertionLru
// shards so that concurrent lookups touching different shards never
// contend. Each shard keeps the full insertion-point semantics of
// lru_cache.h — the same fractional insertion depths applied to the
// shard's own capacity — so positioned prefetch admission (paper §4.3.1)
// is preserved per shard. Capacity is split across shards proportionally
// to each shard's slice of the universe (largest-remainder rounding), so
// aggregate hit rates track the unsharded cache on skewed workloads.
//
// With one shard this class is byte-identical to a single InsertionLru:
// same hits, same eviction victims, same MRU→LRU order (the fidelity
// tests rely on this).
//
// Like InsertionLru, the class itself is NOT thread-safe: the caller
// (BandanaTable) holds one lock per shard and must hold the lock of
// shard_of(v) around any access/insert/erase of v. Whole-cache accessors
// (contents, size, rollup) are for tests and diagnostics and expect
// external quiescence.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/lru_cache.h"
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
  /// `shard_of[v]` assigns vector v to a shard in [0, num_shards); pass an
  /// empty vector with num_shards == 1 for the unsharded (seed) layout.
  /// `capacity` is the total entry budget; every shard receives at least 1
  /// entry, so the effective total (see capacity()) can exceed the request
  /// when capacity < num_shards.
  ShardedInsertionLru(std::uint32_t universe, std::uint64_t capacity,
                      std::vector<double> insertion_points = {0.0},
                      std::vector<std::uint32_t> shard_of = {},
                      std::uint32_t num_shards = 1);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t shard_of(VectorId v) const { return shard_of_[v]; }
  /// The full id->shard mapping (e.g. to build a co-sharded shadow cache).
  const std::vector<std::uint32_t>& assignment() const { return shard_of_; }
  std::size_t num_insertion_points() const {
    return shards_.front().num_insertion_points();
  }

  /// Sum of per-shard capacities (== requested capacity unless clamped up).
  std::uint64_t capacity() const { return total_capacity_; }
  std::uint64_t shard_capacity(std::uint32_t s) const {
    return shards_[s].capacity();
  }

  // Single-entry operations: the caller must hold the lock of shard_of(v).
  bool contains(VectorId v) const {
    return shards_[shard_of_[v]].contains(local_id_[v]);
  }
  bool access(VectorId v);
  VectorId insert(VectorId v, std::size_t point = 0);
  bool erase(VectorId v);

  /// Occupancy + counters of one shard (caller holds that shard's lock).
  CacheShardStats shard_stats(std::uint32_t s) const;
  /// Aggregate over all shards (diagnostic; expects quiescence).
  CacheShardStats rollup() const;

  /// Whole-cache size / contents (tests; expect quiescence). contents()
  /// concatenates shards in index order, each MRU→LRU; with one shard this
  /// is exactly InsertionLru::contents().
  std::uint64_t size() const;
  std::vector<VectorId> contents() const;
  std::vector<VectorId> shard_contents(std::uint32_t s) const;

 private:
  std::vector<std::uint32_t> shard_of_;   // global id -> shard
  std::vector<VectorId> local_id_;        // global id -> dense id in shard
  std::vector<std::vector<VectorId>> global_of_;  // shard, local -> global
  std::vector<InsertionLru> shards_;
  std::vector<CacheShardStats> stats_;
  std::uint64_t total_capacity_ = 0;
};

}  // namespace bandana
