// Offline training pipeline (the paper's full §4 flow):
//
//   1. Partition each table's training trace -> block layout + per-vector
//      access counts. The backend is pluggable (PartitionerConfig): SHP
//      (default, §4.2.2), recursive K-means over embedding values (§4.2.1),
//      or greedy hypergraph min-cut. train() hands SHP every table in one
//      run_shp call, so with a pool the tables' bisections share the
//      workers; the other backends, and reservoir-sampled training, go one
//      table at a time.
//   2. Estimate each table's hit-rate curve with sampled stack distances.
//   3. Split the DRAM budget across tables by greedy marginal utility
//      (§4.3.3, Dynacache-style).
//   4. Tune each table's prefetch admission threshold with miniature-cache
//      simulations at its allocated capacity.
//
// The output StorePlan is everything Store::add_table needs. train()
// consumes materialized traces; train_stream() consumes TraceSources in
// bounded chunks (reservoir sampling), so peak training memory is set by
// PartitionerConfig::max_train_queries, not the trace length.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/mini_cache.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "partition/partitioner.h"
#include "trace/embedding_table.h"
#include "trace/trace.h"
#include "trace/trace_stream.h"

namespace bandana {

struct TrainerConfig {
  /// Total DRAM budget across all tables, in vectors.
  std::uint64_t total_cache_vectors = 400'000;
  /// Partitioner backend + knobs; vectors_per_block is overridden from the
  /// StoreConfig. Per-table seeds are derived as splitmix64(seed + i), so
  /// the SHP default is byte-identical to the pre-seam pipeline.
  PartitionerConfig partitioner;
  /// Miniature-cache tuning knobs (sampling rate, candidate thresholds).
  MiniCacheTunerConfig tuner;
  /// Sampling rate for hit-rate-curve estimation (step 2).
  double hrc_sampling_rate = 0.01;
  /// Allocation granularity for the DRAM split.
  std::uint64_t alloc_chunk = 1024;
  /// false = uniform split (ablation).
  bool use_dram_allocator = true;
};

/// Per-run training telemetry (all-tables totals). Feeds the retrain
/// latency budget in OnlineRetrainer and the runtime-vs-quality benches.
struct TrainerStats {
  double partition_us = 0.0;  ///< Phase 1 wall time (all tables).
  double curve_us = 0.0;      ///< Phases 2-3: hit-rate curves + DRAM split.
  double tune_us = 0.0;       ///< Phase 4: threshold tuning.
  /// Estimated peak resident training bytes (traces and reservoirs
  /// included): the largest sum over the tables partitioned at once. SHP in
  /// train() keeps up to one table per pool worker in flight, so this is
  /// the largest in-flight sum run_shp saw (partition/shp.h); one table at a
  /// time, it is the max over tables.
  std::uint64_t peak_training_bytes = 0;
  std::size_t stream_queries = 0;   ///< Streaming mode: queries seen.
  std::size_t sampled_queries = 0;  ///< Streaming mode: queries trained on.
};

struct TablePlan {
  BlockLayout layout;
  std::vector<std::uint32_t> access_counts;
  TablePolicy policy;
  double shp_train_fanout = 0.0;  ///< Backend's final train-set fanout.
};

struct StorePlan {
  std::vector<TablePlan> tables;
};

class Trainer {
 public:
  Trainer(const StoreConfig& store_cfg, TrainerConfig cfg)
      : store_cfg_(store_cfg), cfg_(std::move(cfg)) {}

  /// `train_traces[i]` and `table_sizes[i]` describe table i. `values[i]`
  /// (optional, may be empty) supplies embedding values for value-based
  /// backends; the K-means backend throws without them. When
  /// PartitionerConfig::max_train_queries is nonzero the partitioning
  /// phase trains on a reservoir sample of that many queries.
  StorePlan train(std::span<const Trace> train_traces,
                  std::span<const std::uint32_t> table_sizes,
                  ThreadPool* pool = nullptr,
                  std::span<const EmbeddingTable* const> values = {},
                  TrainerStats* stats = nullptr) const;

  /// Bounded-memory variant: pulls each table's trace from a TraceSource
  /// in chunks, trains on a reservoir sample (max_train_queries must be
  /// nonzero), and tunes thresholds on the sample.
  StorePlan train_stream(std::span<TraceSource* const> sources,
                         std::span<const std::uint32_t> table_sizes,
                         ThreadPool* pool = nullptr,
                         std::span<const EmbeddingTable* const> values = {},
                         TrainerStats* stats = nullptr) const;

 private:
  StorePlan assemble(std::span<const Trace> tuning_traces,
                     std::span<const std::uint32_t> table_sizes,
                     std::vector<PartitionResult>& parts,
                     TrainerStats* stats) const;
  PartitionerConfig table_config(std::size_t table) const;

  StoreConfig store_cfg_;
  TrainerConfig cfg_;
};

}  // namespace bandana
