// Operational counters exposed by the store (per table and aggregated).
#pragma once

#include <atomic>
#include <cstdint>

namespace bandana {

struct TableMetrics {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t nvm_block_reads = 0;
  std::uint64_t prefetch_inserted = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t nvm_bytes_read = 0;   ///< block_bytes * nvm_block_reads
  std::uint64_t miss_bytes = 0;       ///< vector_bytes * (lookups - hits)
  std::uint64_t app_bytes_served = 0; ///< vector_bytes * lookups
  std::uint64_t republish_writes = 0; ///< vectors rewritten via update()

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

  /// Snapshot aggregation: fold another table's (or node's) counters into
  /// this rollup. The per-table rollups (Store::total_metrics, the bench
  /// sweeps) and the cluster-wide rollup (cluster/store_cluster.h) all go
  /// through here.
  TableMetrics& merge(const TableMetrics& o) {
    lookups += o.lookups;
    hits += o.hits;
    nvm_block_reads += o.nvm_block_reads;
    prefetch_inserted += o.prefetch_inserted;
    prefetch_hits += o.prefetch_hits;
    nvm_bytes_read += o.nvm_bytes_read;
    miss_bytes += o.miss_bytes;
    app_bytes_served += o.app_bytes_served;
    republish_writes += o.republish_writes;
    return *this;
  }

  TableMetrics& operator+=(const TableMetrics& o) { return merge(o); }
};

/// Store-wide counters of the staged (batched real-I/O) read pipeline.
/// They make the pipeline's coverage gaps visible: a healthy staged path
/// serves every miss from staged bytes (inline_reads stays 0) and stages
/// every miss block up front (deferred counters stay near 0 — they grow
/// only when concurrency evicts a peeked block before its lookup, or the
/// staging cap truncates).
struct StoreMetrics {
  std::uint64_t staged_blocks = 0;       ///< Blocks fetched by the peek pass.
  std::uint64_t stage_truncated_blocks = 0;  ///< Miss-block sightings past the
                                             ///< staging cap (not staged, not
                                             ///< deduplicated across sightings).
  std::uint64_t deferred_lookups = 0;    ///< Lookups whose block was unstaged
                                         ///< (evicted peek->lookup, or
                                         ///< truncated) and went to a retry.
  std::uint64_t retry_blocks = 0;        ///< Deduplicated blocks fetched by
                                         ///< retry waves.
  std::uint64_t retry_waves = 0;         ///< Batched retry fetches issued.
  std::uint64_t write_waves = 0;         ///< Write waves (add_table, push,
                                         ///< install) scheduled on the
                                         ///< engine, including zero-length
                                         ///< no-op republish waves. Storage
                                         ///< growth is host work: never
                                         ///< counted.
  std::uint64_t write_blocks = 0;        ///< Blocks carried by those waves.
  std::uint64_t write_batches = 0;       ///< Batched write_blocks() calls
                                         ///< the store's write waves issued
                                         ///< (growth copies not counted).
                                         ///< Chunking is decided by the
                                         ///< store, so the count is
                                         ///< backend-identical.
  std::uint64_t write_short_resubmits = 0;  ///< Partial device writes the
                                            ///< async backend resubmitted for
                                            ///< the remaining byte range
                                            ///< (0 on inline backends).
  std::uint64_t republish_skipped_blocks = 0;  ///< Blocks a republish or
                                               ///< trickle plan diff proved
                                               ///< unchanged and never
                                               ///< rewrote.
  std::uint64_t mapping_swaps = 0;       ///< Republishes (trickle or
                                         ///< one-shot) that completed and
                                         ///< swapped a table's block
                                         ///< mapping.
  std::uint64_t manifest_commits = 0;    ///< Durable manifest commits (sync +
                                         ///< pointer flip) the store made; 0
                                         ///< when no manifest is attached.
  std::uint64_t retrain_runs = 0;        ///< Online retrains that trained.
  std::uint64_t retrain_drain_us = 0;    ///< Cumulative sample-drain wall us.
  std::uint64_t retrain_train_us = 0;    ///< Cumulative training wall us.
  std::uint64_t retrain_diff_us = 0;     ///< Cumulative plan-diff/session-
                                         ///< open wall us.
  std::uint64_t retrain_peak_training_bytes = 0;  ///< Max over retrains of
                                                  ///< the trainer's peak
                                                  ///< resident estimate.
  std::uint64_t retrain_budget_overruns = 0;  ///< Retrains whose training
                                              ///< wall time exceeded the
                                              ///< RepublishConfig-derived
                                              ///< push budget.
  std::uint64_t migration_read_blocks = 0;   ///< Donor blocks read out by
                                             ///< read_table_blocks waves.
  std::uint64_t migration_write_blocks = 0;  ///< Blocks streamed into tables
                                             ///< via TableInstall waves.
  std::uint64_t table_installs = 0;          ///< Streaming installs finished
                                             ///< (migrated-in tables).
  std::uint64_t tables_retired = 0;          ///< Tables retired (migrated
                                             ///< out, blocks reclaimed).
  bool registered_buffers_active = false;  ///< The backend carries waves on
                                           ///< an io_uring registered-buffer
                                           ///< pool (zero-copy FIXED ops).

  /// Snapshot aggregation: fold another store's counters into this rollup
  /// (the cluster tier merges every node's snapshot into one
  /// ClusterMetrics; a 1-node cluster's merged rollup is field-identical
  /// to the bare store's snapshot).
  StoreMetrics& merge(const StoreMetrics& o) {
    staged_blocks += o.staged_blocks;
    stage_truncated_blocks += o.stage_truncated_blocks;
    deferred_lookups += o.deferred_lookups;
    retry_blocks += o.retry_blocks;
    retry_waves += o.retry_waves;
    write_waves += o.write_waves;
    write_blocks += o.write_blocks;
    write_batches += o.write_batches;
    write_short_resubmits += o.write_short_resubmits;
    republish_skipped_blocks += o.republish_skipped_blocks;
    mapping_swaps += o.mapping_swaps;
    manifest_commits += o.manifest_commits;
    retrain_runs += o.retrain_runs;
    retrain_drain_us += o.retrain_drain_us;
    retrain_train_us += o.retrain_train_us;
    retrain_diff_us += o.retrain_diff_us;
    retrain_peak_training_bytes =
        retrain_peak_training_bytes > o.retrain_peak_training_bytes
            ? retrain_peak_training_bytes
            : o.retrain_peak_training_bytes;
    retrain_budget_overruns += o.retrain_budget_overruns;
    migration_read_blocks += o.migration_read_blocks;
    migration_write_blocks += o.migration_write_blocks;
    table_installs += o.table_installs;
    tables_retired += o.tables_retired;
    // A rollup is "registered" when any node carries its waves zero-copy.
    registered_buffers_active = registered_buffers_active ||
                                o.registered_buffers_active;
    return *this;
  }

  StoreMetrics& operator+=(const StoreMetrics& o) { return merge(o); }
};

/// Write side of StoreMetrics: bumped from concurrent request streams with
/// relaxed atomics, snapshotted lock-free like AtomicTableMetrics.
struct AtomicStoreMetrics {
  std::atomic<std::uint64_t> staged_blocks{0};
  std::atomic<std::uint64_t> stage_truncated_blocks{0};
  std::atomic<std::uint64_t> deferred_lookups{0};
  std::atomic<std::uint64_t> retry_blocks{0};
  std::atomic<std::uint64_t> retry_waves{0};
  std::atomic<std::uint64_t> write_waves{0};
  std::atomic<std::uint64_t> write_blocks{0};
  std::atomic<std::uint64_t> write_batches{0};
  std::atomic<std::uint64_t> republish_skipped_blocks{0};
  std::atomic<std::uint64_t> mapping_swaps{0};
  std::atomic<std::uint64_t> manifest_commits{0};
  std::atomic<std::uint64_t> retrain_runs{0};
  std::atomic<std::uint64_t> retrain_drain_us{0};
  std::atomic<std::uint64_t> retrain_train_us{0};
  std::atomic<std::uint64_t> retrain_diff_us{0};
  std::atomic<std::uint64_t> retrain_peak_training_bytes{0};
  std::atomic<std::uint64_t> retrain_budget_overruns{0};
  std::atomic<std::uint64_t> migration_read_blocks{0};
  std::atomic<std::uint64_t> migration_write_blocks{0};
  std::atomic<std::uint64_t> table_installs{0};
  std::atomic<std::uint64_t> tables_retired{0};
  // write_short_resubmits and registered_buffers_active live in the
  // storage backend (BlockStorage::write_stats); Store::store_metrics()
  // samples them into the snapshot.

  /// Monotonic max (the peak is a high-water mark, not a sum).
  void note_peak_training_bytes(std::uint64_t bytes) {
    std::uint64_t cur =
        retrain_peak_training_bytes.load(std::memory_order_relaxed);
    while (bytes > cur && !retrain_peak_training_bytes.compare_exchange_weak(
                              cur, bytes, std::memory_order_relaxed)) {
    }
  }

  StoreMetrics snapshot() const {
    StoreMetrics m;
    m.staged_blocks = staged_blocks.load(std::memory_order_relaxed);
    m.stage_truncated_blocks =
        stage_truncated_blocks.load(std::memory_order_relaxed);
    m.deferred_lookups = deferred_lookups.load(std::memory_order_relaxed);
    m.retry_blocks = retry_blocks.load(std::memory_order_relaxed);
    m.retry_waves = retry_waves.load(std::memory_order_relaxed);
    m.write_waves = write_waves.load(std::memory_order_relaxed);
    m.write_blocks = write_blocks.load(std::memory_order_relaxed);
    m.write_batches = write_batches.load(std::memory_order_relaxed);
    m.republish_skipped_blocks =
        republish_skipped_blocks.load(std::memory_order_relaxed);
    m.mapping_swaps = mapping_swaps.load(std::memory_order_relaxed);
    m.manifest_commits = manifest_commits.load(std::memory_order_relaxed);
    m.retrain_runs = retrain_runs.load(std::memory_order_relaxed);
    m.retrain_drain_us = retrain_drain_us.load(std::memory_order_relaxed);
    m.retrain_train_us = retrain_train_us.load(std::memory_order_relaxed);
    m.retrain_diff_us = retrain_diff_us.load(std::memory_order_relaxed);
    m.retrain_peak_training_bytes =
        retrain_peak_training_bytes.load(std::memory_order_relaxed);
    m.retrain_budget_overruns =
        retrain_budget_overruns.load(std::memory_order_relaxed);
    m.migration_read_blocks =
        migration_read_blocks.load(std::memory_order_relaxed);
    m.migration_write_blocks =
        migration_write_blocks.load(std::memory_order_relaxed);
    m.table_installs = table_installs.load(std::memory_order_relaxed);
    m.tables_retired = tables_retired.load(std::memory_order_relaxed);
    return m;
  }
};

/// Write side of TableMetrics for the sharded serving path: shard-local
/// lookups bump relaxed atomics (no lock, no cross-shard cache-line
/// ping-pong beyond the counter itself), and readers take a lock-free
/// snapshot at any time — metrics accessors never stall serving.
struct AtomicTableMetrics {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> nvm_block_reads{0};
  std::atomic<std::uint64_t> prefetch_inserted{0};
  std::atomic<std::uint64_t> prefetch_hits{0};
  std::atomic<std::uint64_t> nvm_bytes_read{0};
  std::atomic<std::uint64_t> miss_bytes{0};
  std::atomic<std::uint64_t> app_bytes_served{0};
  std::atomic<std::uint64_t> republish_writes{0};

  /// Publish counters a caller accumulated locally: one relaxed RMW per
  /// non-zero field, so a batch of lookups touches the shared line once
  /// per counter rather than once per lookup.
  void add(const TableMetrics& d) {
    const auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t v) {
      if (v) c.fetch_add(v, std::memory_order_relaxed);
    };
    bump(lookups, d.lookups);
    bump(hits, d.hits);
    bump(nvm_block_reads, d.nvm_block_reads);
    bump(prefetch_inserted, d.prefetch_inserted);
    bump(prefetch_hits, d.prefetch_hits);
    bump(nvm_bytes_read, d.nvm_bytes_read);
    bump(miss_bytes, d.miss_bytes);
    bump(app_bytes_served, d.app_bytes_served);
    bump(republish_writes, d.republish_writes);
  }

  /// Each counter is individually consistent; the set is as consistent as
  /// any point-in-time poll of a live system can be.
  TableMetrics snapshot() const {
    TableMetrics m;
    m.lookups = lookups.load(std::memory_order_relaxed);
    m.hits = hits.load(std::memory_order_relaxed);
    m.nvm_block_reads = nvm_block_reads.load(std::memory_order_relaxed);
    m.prefetch_inserted = prefetch_inserted.load(std::memory_order_relaxed);
    m.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
    m.nvm_bytes_read = nvm_bytes_read.load(std::memory_order_relaxed);
    m.miss_bytes = miss_bytes.load(std::memory_order_relaxed);
    m.app_bytes_served = app_bytes_served.load(std::memory_order_relaxed);
    m.republish_writes = republish_writes.load(std::memory_order_relaxed);
    return m;
  }
};

}  // namespace bandana
