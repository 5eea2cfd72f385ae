#include "core/trainer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "cache/dram_allocator.h"
#include "common/rng.h"

namespace bandana {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Each table's peak already counts the tables trained beside it, so the
/// run's peak is the largest of them.
void add_partition_stats(const std::vector<PartitionResult>& parts,
                         TrainerStats& stats) {
  for (const PartitionResult& p : parts) {
    stats.peak_training_bytes =
        std::max(stats.peak_training_bytes, p.peak_training_bytes);
    stats.stream_queries += p.stream_queries;
    stats.sampled_queries += p.sampled_queries;
  }
}

}  // namespace

PartitionerConfig Trainer::table_config(std::size_t table) const {
  // Per-table seeds, derived exactly as the pre-seam pipeline derived its
  // per-table SHP seed (splitmix64(seed + i)) — the replay-golden digests
  // pin this.
  PartitionerConfig pc = cfg_.partitioner;
  pc.shp.seed = splitmix64(cfg_.partitioner.shp.seed + table);
  pc.kmeans.seed = splitmix64(cfg_.partitioner.kmeans.seed + table);
  pc.hypergraph.seed = splitmix64(cfg_.partitioner.hypergraph.seed + table);
  pc.stream_seed = splitmix64(cfg_.partitioner.stream_seed + table);
  return pc;
}

StorePlan Trainer::assemble(std::span<const Trace> tuning_traces,
                            std::span<const std::uint32_t> table_sizes,
                            std::vector<PartitionResult>& parts,
                            TrainerStats* stats) const {
  const std::size_t n = tuning_traces.size();

  // 2. Hit-rate curves from sampled stack distances.
  auto t_curve = std::chrono::steady_clock::now();
  std::vector<HitRateCurve> curves;
  curves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    curves.push_back(approximate_hit_rate_curve(
        tuning_traces[i], table_sizes[i], cfg_.hrc_sampling_rate));
  }

  // 3. DRAM split.
  const DramAllocation alloc =
      cfg_.use_dram_allocator
          ? allocate_dram(curves, cfg_.total_cache_vectors, cfg_.alloc_chunk)
          : allocate_uniform(curves, cfg_.total_cache_vectors);
  if (stats) stats->curve_us += elapsed_us(t_curve);

  // 4. Threshold tuning per table at its allocated capacity.
  auto t_tune = std::chrono::steady_clock::now();
  StorePlan plan;
  plan.tables.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BlockLayout layout = BlockLayout::from_order(
        parts[i].order, store_cfg_.vectors_per_block());
    // A table squeezed to zero DRAM still gets a minimal cache so the
    // store can operate; the allocator said it will not benefit anyway.
    const std::uint64_t capacity =
        std::max<std::uint64_t>(alloc.per_table[i], 1024);
    const ThresholdChoice choice =
        tune_threshold(tuning_traces[i], layout, parts[i].access_counts,
                       capacity, cfg_.tuner);
    TablePolicy policy;
    policy.cache_vectors = capacity;
    policy.policy = PrefetchPolicy::kThreshold;
    policy.access_threshold = choice.threshold;
    plan.tables.push_back(TablePlan{std::move(layout),
                                    std::move(parts[i].access_counts), policy,
                                    parts[i].final_avg_fanout});
  }
  if (stats) stats->tune_us += elapsed_us(t_tune);
  return plan;
}

StorePlan Trainer::train(std::span<const Trace> train_traces,
                         std::span<const std::uint32_t> table_sizes,
                         ThreadPool* pool,
                         std::span<const EmbeddingTable* const> values,
                         TrainerStats* stats) const {
  assert(train_traces.size() == table_sizes.size());
  const std::size_t n = train_traces.size();

  // 1. Partition. SHP trains every table in one run_shp call, so one
  // table's narrow top levels overlap the others' refinement; other
  // backends, and reservoir-sampled training (max_train_queries > 0),
  // partition one table after another.
  auto t_part = std::chrono::steady_clock::now();
  std::vector<PartitionResult> parts(n);
  if (cfg_.partitioner.backend == PartitionerBackend::kShp &&
      cfg_.partitioner.max_train_queries == 0) {
    std::vector<ShpTable> tables(n);
    for (std::size_t i = 0; i < n; ++i) {
      PartitionerConfig pc = table_config(i);
      pc.shp.vectors_per_block = store_cfg_.vectors_per_block();
      validate(pc);
      tables[i] = ShpTable{&train_traces[i], table_sizes[i], pc.shp};
    }
    std::vector<ShpResult> shp = run_shp(tables, pool);
    for (std::size_t i = 0; i < n; ++i) {
      parts[i] = to_partition_result(std::move(shp[i]));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const PartitionerConfig pc = table_config(i);
      const auto part = make_partitioner(pc, store_cfg_.vectors_per_block());
      const EmbeddingTable* vals = i < values.size() ? values[i] : nullptr;
      if (pc.max_train_queries > 0) {
        TraceRefSource source(train_traces[i]);
        parts[i] =
            part->partition_stream(source, table_sizes[i], pc, vals, pool);
      } else {
        parts[i] =
            part->partition(train_traces[i], table_sizes[i], vals, pool);
      }
    }
  }
  if (stats) {
    stats->partition_us += elapsed_us(t_part);
    add_partition_stats(parts, *stats);
  }

  return assemble(train_traces, table_sizes, parts, stats);
}

StorePlan Trainer::train_stream(std::span<TraceSource* const> sources,
                                std::span<const std::uint32_t> table_sizes,
                                ThreadPool* pool,
                                std::span<const EmbeddingTable* const> values,
                                TrainerStats* stats) const {
  assert(sources.size() == table_sizes.size());
  const std::size_t n = sources.size();

  auto t_part = std::chrono::steady_clock::now();
  std::vector<PartitionResult> parts(n);
  std::vector<Trace> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PartitionerConfig pc = table_config(i);
    const auto part = make_partitioner(pc, store_cfg_.vectors_per_block());
    const EmbeddingTable* vals = i < values.size() ? values[i] : nullptr;
    parts[i] = part->partition_stream(*sources[i], table_sizes[i], pc, vals,
                                      pool, &samples[i]);
  }
  if (stats) {
    stats->partition_us += elapsed_us(t_part);
    add_partition_stats(parts, *stats);
  }

  // Hit-rate curves and threshold tuning run on the samples — the only
  // materialized traces this path ever holds.
  return assemble(samples, table_sizes, parts, stats);
}

}  // namespace bandana
