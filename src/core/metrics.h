// Operational counters exposed by the store (per table and aggregated).
// Each struct is declared once, as a field table (common/field_table.h);
// its merge, atomic mirror, equality and printing are generated from it.
#pragma once

#include <cstdint>

#include "common/field_table.h"

namespace bandana {

// TableMetrics: per-table serving counters, all sum. The per-table
// rollups (Store::total_metrics, the bench sweeps) and the cluster-wide
// rollup (cluster/store_cluster.h) fold snapshots together with merge().
//   lookups            Ids looked up.
//   hits               Ids served from the DRAM cache.
//   nvm_block_reads    Blocks read from NVM.
//   prefetch_inserted  Vectors admitted as prefetches (unrequested
//                      neighbours in a block read for a miss).
//   prefetch_hits      First hits on prefetched vectors.
//   nvm_bytes_read     block_bytes * nvm_block_reads.
//   miss_bytes         vector_bytes * (lookups - hits).
//   app_bytes_served   vector_bytes * lookups.
//   republish_writes   Vectors rewritten by finished trickle pushes
//                      (Store::republish is a trickle too).
#define BANDANA_TABLE_METRICS_FIELDS(F)    \
  F(std::uint64_t, lookups, sum)           \
  F(std::uint64_t, hits, sum)              \
  F(std::uint64_t, nvm_block_reads, sum)   \
  F(std::uint64_t, prefetch_inserted, sum) \
  F(std::uint64_t, prefetch_hits, sum)     \
  F(std::uint64_t, nvm_bytes_read, sum)    \
  F(std::uint64_t, miss_bytes, sum)        \
  F(std::uint64_t, app_bytes_served, sum)  \
  F(std::uint64_t, republish_writes, sum)

struct TableMetrics {
  BANDANA_FIELD_STRUCT(TableMetrics, BANDANA_TABLE_METRICS_FIELDS)

  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }

  /// Fraction of NVM read traffic that carried application-requested bytes
  /// ("effective bandwidth", paper §4.1 — 4 % for the naive baseline).
  double effective_bandwidth_fraction() const {
    return nvm_bytes_read ? static_cast<double>(miss_bytes) /
                                static_cast<double>(nvm_bytes_read)
                          : 0.0;
  }
};

/// Write side of TableMetrics for the sharded serving path: a table-get
/// accumulates its counts locally and publishes them with one add() (one
/// relaxed RMW per non-zero field), and readers take a lock-free
/// snapshot() at any time — metrics accessors never stall serving.
struct AtomicTableMetrics {
  BANDANA_FIELD_MIRROR(TableMetrics, BANDANA_TABLE_METRICS_FIELDS)
};

// StoreMetrics: store-wide counters, all sum except the peak (max) and the
// flag (any). The cluster tier merges every node's snapshot into one
// ClusterMetrics; a 1-node cluster's rollup equals the bare store's.
// Staged read pipeline: a healthy staged path stages every miss block up
// front, so its deferred and truncated counters stay near 0 — they grow
// when a lookup evicts a block a later lookup of the same request peeked
// as cached, when a concurrent request or swap moves a peeked block, or
// when the staging cap truncates.
//   staged_blocks: fetched by the peek pass. stage_truncated_blocks:
//   miss-block sightings past the staging cap (not staged, not deduplicated
//   across sightings). deferred_lookups: lookups that staging missed —
//   they missed the cache and their block was not staged — each served
//   by an inline read of its block, in request order. retry_blocks,
//   retry_waves: those inline reads, one block each (the names predate
//   the inline read; both equal deferred_lookups).
// Write path:
//   write_waves: add_table, push and install waves scheduled on the
//   engine, zero-length no-op republish waves included; storage growth is
//   host work and never counted. write_blocks: blocks those waves carry.
//   write_batches: their write_blocks() calls (the store chunks, so the
//   count is backend-identical). write_short_resubmits: partial device
//   writes the async backend resubmitted for the rest of their range (0 on
//   inline backends). republish_skipped_blocks: blocks a republish or
//   trickle plan diff proved unchanged and never rewrote. mapping_swaps:
//   republishes that completed and swapped a table's block mapping.
//   manifest_commits: durable commits (sync + pointer flip); 0 when no
//   manifest is attached.
// Online retraining:
//   retrain_runs: retrains that trained. retrain_drain_us,
//   retrain_train_us, retrain_diff_us: cumulative wall us of sample drain,
//   training, and plan diff + session open. retrain_peak_training_bytes
//   (max): the trainer's peak resident estimate over retrains.
//   retrain_budget_overruns: retrains whose training phase (values lookup
//   plus Trainer::train) spanned more simulated time (Store::now_us) than
//   the push estimate (trickle_push_budget_us), which is simulated time
//   too; retrain_train_us stays wall time. write_budget_waits: trickle
//   pumps whose wave the store-wide background budget cut below the
//   session's own allowance (0 included).
// Migration:
//   migration_read_blocks: donor blocks read out by read_table_blocks
//   waves. migration_write_blocks: blocks streamed in by TableInstall
//   waves. table_installs: finished streaming installs (migrated-in
//   tables). tables_retired: tables migrated out, blocks reclaimed.
// registered_buffers_active (any): the backend carries waves on an
// io_uring registered-buffer pool (zero-copy FIXED ops); a rollup is
// registered when any node is.
#define BANDANA_STORE_METRICS_FIELDS(F)              \
  F(std::uint64_t, staged_blocks, sum)               \
  F(std::uint64_t, stage_truncated_blocks, sum)      \
  F(std::uint64_t, deferred_lookups, sum)            \
  F(std::uint64_t, retry_blocks, sum)                \
  F(std::uint64_t, retry_waves, sum)                 \
  F(std::uint64_t, write_waves, sum)                 \
  F(std::uint64_t, write_blocks, sum)                \
  F(std::uint64_t, write_batches, sum)               \
  F(std::uint64_t, write_short_resubmits, sum)       \
  F(std::uint64_t, republish_skipped_blocks, sum)    \
  F(std::uint64_t, mapping_swaps, sum)               \
  F(std::uint64_t, manifest_commits, sum)            \
  F(std::uint64_t, retrain_runs, sum)                \
  F(std::uint64_t, retrain_drain_us, sum)            \
  F(std::uint64_t, retrain_train_us, sum)            \
  F(std::uint64_t, retrain_diff_us, sum)             \
  F(std::uint64_t, retrain_peak_training_bytes, max) \
  F(std::uint64_t, retrain_budget_overruns, sum)     \
  F(std::uint64_t, write_budget_waits, sum)          \
  F(std::uint64_t, migration_read_blocks, sum)       \
  F(std::uint64_t, migration_write_blocks, sum)      \
  F(std::uint64_t, table_installs, sum)              \
  F(std::uint64_t, tables_retired, sum)              \
  F(bool, registered_buffers_active, any)

struct StoreMetrics {
  BANDANA_FIELD_STRUCT(StoreMetrics, BANDANA_STORE_METRICS_FIELDS)
};

/// Write side of StoreMetrics, bumped from concurrent request streams.
/// Store::store_metrics() samples write_short_resubmits and
/// registered_buffers_active from the backend (BlockStorage::write_stats).
struct AtomicStoreMetrics {
  BANDANA_FIELD_MIRROR(StoreMetrics, BANDANA_STORE_METRICS_FIELDS)
};

// DramBytes: the host memory a store holds, in bytes, measured from its
// containers' allocated capacities (Store::dram_bytes; StoreCluster sums
// its nodes), all sum. Fixed-size objects and allocator overhead are not
// counted. Per table:
//   slab            Cached vector bytes: cache slots x vector_bytes (the
//                   capacity, capped in each shard at its vectors).
//   cache_index     The cache's 4-byte node index per vector, its node pool
//                   (16 B per slab slot) and per-shard bookkeeping.
//   shadow_index    The same for the shadow cache (kShadow,
//                   kShadowPosition; 0 otherwise).
//   layout          Order and position per vector (8 B per vector).
//   admission       Access counts (4 B per vector, kept for the manifest
//                   and mapping snapshots) and kThreshold's admit bits.
//   block_maps      Local -> storage block maps and per-block dedup marks;
//                   at store level also the free list and reservations.
//   staging         Per-shard block scratch that file-backend misses read
//                   into: one block per shard that has served such a
//                   miss; 0 on memory storage, which lends blocks in place.
//   retired_states  Swapped-out table states awaiting reclamation.
// Per store:
//   storage_buffers The backend's own buffers (the async file backend's
//                   registered wave buffers). Memory storage holds the
//                   simulated device's blocks, which stand in for NVM and
//                   are not counted.
#define BANDANA_DRAM_BYTES_FIELDS(F)    \
  F(std::uint64_t, slab, sum)           \
  F(std::uint64_t, cache_index, sum)    \
  F(std::uint64_t, shadow_index, sum)   \
  F(std::uint64_t, layout, sum)         \
  F(std::uint64_t, admission, sum)      \
  F(std::uint64_t, block_maps, sum)     \
  F(std::uint64_t, staging, sum)        \
  F(std::uint64_t, retired_states, sum) \
  F(std::uint64_t, storage_buffers, sum)

#define BANDANA_DRAM_BYTES_ADD_(type, name, rule) bytes += name;

struct DramBytes {
  BANDANA_FIELD_STRUCT(DramBytes, BANDANA_DRAM_BYTES_FIELDS)

  std::uint64_t total() const {
    std::uint64_t bytes = 0;
    BANDANA_DRAM_BYTES_FIELDS(BANDANA_DRAM_BYTES_ADD_)
    return bytes;
  }
};

}  // namespace bandana
