#include "partition/partitioner.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "partition/coaccess.h"

namespace bandana {

const char* backend_name(PartitionerBackend backend) {
  switch (backend) {
    case PartitionerBackend::kShp:
      return "shp";
    case PartitionerBackend::kRecursiveKMeans:
      return "kmeans";
    case PartitionerBackend::kHypergraph:
      return "hypergraph";
  }
  return "unknown";
}

void validate(const PartitionerConfig& config) {
  switch (config.backend) {
    case PartitionerBackend::kShp:
      validate(config.shp);
      break;
    case PartitionerBackend::kRecursiveKMeans:
      validate(config.kmeans);
      break;
    case PartitionerBackend::kHypergraph:
      validate(config.hypergraph);
      break;
    default:
      throw std::invalid_argument("PartitionerConfig: unknown backend");
  }
  if (config.chunk_queries == 0) {
    throw std::invalid_argument("PartitionerConfig: chunk_queries must be > 0");
  }
}

PartitionResult to_partition_result(ShpResult shp) {
  PartitionResult out;
  out.order = std::move(shp.order);
  out.access_counts = std::move(shp.access_counts);
  out.initial_avg_fanout = shp.initial_avg_fanout;
  out.final_avg_fanout = shp.final_avg_fanout;
  out.peak_training_bytes = shp.peak_memory_bytes;
  return out;
}

PartitionResult ShpPartitioner::partition(const Trace& train,
                                          std::uint32_t num_vectors,
                                          const EmbeddingTable* /*values*/,
                                          ThreadPool* pool) const {
  return to_partition_result(run_shp(train, num_vectors, config_, pool));
}

PartitionResult RecursiveKMeansPartitioner::partition(
    const Trace& train, std::uint32_t num_vectors,
    const EmbeddingTable* values, ThreadPool* pool) const {
  if (values == nullptr) {
    throw std::invalid_argument(
        "RecursiveKMeansPartitioner: embedding values required (semantic "
        "partitioning clusters vectors, not accesses)");
  }
  if (values->num_vectors() != num_vectors) {
    throw std::invalid_argument(
        "RecursiveKMeansPartitioner: values table size mismatch");
  }
  validate(config_);
  if (train.num_queries() == 0) {
    throw std::invalid_argument(
        "RecursiveKMeansPartitioner: empty training trace");
  }
  // The trace still supplies access counts (admission filter) and the
  // fanout quality metric; only the placement itself is value-based.
  const CoAccessGraph h = build_coaccess(train, num_vectors, 0);
  PartitionResult out;
  out.access_counts.resize(num_vectors);
  for (VectorId v = 0; v < num_vectors; ++v) {
    out.access_counts[v] = h.degree(v);
  }
  const std::uint32_t vpb = vectors_per_block_;
  const std::uint32_t num_blocks = (num_vectors + vpb - 1) / vpb;
  {
    std::vector<std::uint32_t> block_of(num_vectors);
    for (std::uint32_t v = 0; v < num_vectors; ++v) block_of[v] = v / vpb;
    out.initial_avg_fanout = coaccess_fanout(h, block_of, num_blocks);
  }
  RecursiveKMeansResult km = recursive_kmeans(*values, config_, pool);
  out.order = std::move(km.order);
  {
    std::vector<std::uint32_t> block_of(num_vectors);
    for (std::uint32_t i = 0; i < num_vectors; ++i) {
      block_of[out.order[i]] = i / vpb;
    }
    out.final_avg_fanout = coaccess_fanout(h, block_of, num_blocks);
  }
  // CSR + order/block_of + centroid/sum scratch of the widest Lloyd stage.
  out.peak_training_bytes =
      h.byte_size() + trace_byte_size(train) +
      std::uint64_t{num_vectors} * (4 + 4) +
      std::uint64_t{config_.top_clusters} * values->dim() * 12;
  return out;
}

PartitionResult HypergraphPartitioner::partition(
    const Trace& train, std::uint32_t num_vectors,
    const EmbeddingTable* /*values*/, ThreadPool* /*pool*/) const {
  HypergraphResult hg = run_hypergraph(train, num_vectors, config_);
  PartitionResult out;
  out.order = std::move(hg.order);
  out.access_counts = std::move(hg.access_counts);
  out.initial_avg_fanout = hg.initial_avg_fanout;
  out.final_avg_fanout = hg.final_avg_fanout;
  out.peak_training_bytes = hg.peak_memory_bytes + trace_byte_size(train);
  return out;
}

PartitionResult Partitioner::partition_stream(TraceSource& source,
                                              std::uint32_t num_vectors,
                                              const PartitionerConfig& config,
                                              const EmbeddingTable* values,
                                              ThreadPool* pool,
                                              Trace* sampled_out) const {
  validate(config);
  if (config.max_train_queries == 0) {
    throw std::invalid_argument(
        "partition_stream: max_train_queries must be > 0 (reservoir size)");
  }
  const std::size_t cap = config.max_train_queries;
  std::vector<std::vector<VectorId>> reservoir;
  reservoir.reserve(cap);
  std::vector<std::uint32_t> counts(num_vectors, 0);
  Rng rng(config.stream_seed);
  Trace chunk;
  std::vector<VectorId> dedup;
  std::size_t seen = 0;
  std::uint64_t reservoir_bytes = 0;
  std::uint64_t peak_bytes = 0;

  for (;;) {
    chunk = Trace();
    const std::size_t got = source.next_chunk(chunk, config.chunk_queries);
    if (got == 0) break;
    for (std::size_t q = 0; q < got; ++q, ++seen) {
      const auto ids = chunk.query(q);
      // Full-stream access counts, deduplicated per query (the same
      // statistic the batch hypergraph degree measures).
      dedup.assign(ids.begin(), ids.end());
      std::sort(dedup.begin(), dedup.end());
      dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
      for (const VectorId v : dedup) ++counts[v];
      // Vitter's Algorithm R.
      if (reservoir.size() < cap) {
        reservoir.emplace_back(ids.begin(), ids.end());
        reservoir_bytes += ids.size() * sizeof(VectorId);
      } else {
        const std::size_t j = rng.next_below(seen + 1);
        if (j < cap) {
          reservoir_bytes -= reservoir[j].size() * sizeof(VectorId);
          reservoir[j].assign(ids.begin(), ids.end());
          reservoir_bytes += ids.size() * sizeof(VectorId);
        }
      }
    }
    peak_bytes = std::max(peak_bytes, reservoir_bytes + trace_byte_size(chunk));
  }
  if (reservoir.empty()) {
    throw std::invalid_argument("partition_stream: empty training stream");
  }

  // Materialize only the sample, release the reservoir, run the backend.
  Trace sampled;
  {
    std::uint64_t lookups = 0;
    for (const auto& q : reservoir) lookups += q.size();
    sampled.reserve(reservoir.size(), lookups);
  }
  for (const auto& q : reservoir) sampled.add_query(q);
  peak_bytes =
      std::max(peak_bytes, reservoir_bytes + trace_byte_size(sampled));
  reservoir.clear();
  reservoir.shrink_to_fit();

  PartitionResult out = partition(sampled, num_vectors, values, pool);
  out.peak_training_bytes = std::max(peak_bytes, out.peak_training_bytes);
  out.access_counts = std::move(counts);
  out.stream_queries = seen;
  out.sampled_queries = sampled.num_queries();
  if (sampled_out) *sampled_out = std::move(sampled);
  return out;
}

std::unique_ptr<Partitioner> make_partitioner(const PartitionerConfig& config,
                                              std::uint32_t vectors_per_block) {
  if (vectors_per_block == 0) {
    throw std::invalid_argument(
        "make_partitioner: vectors_per_block must be > 0");
  }
  PartitionerConfig cfg = config;
  cfg.shp.vectors_per_block = vectors_per_block;
  cfg.hypergraph.vectors_per_block = vectors_per_block;
  validate(cfg);
  switch (cfg.backend) {
    case PartitionerBackend::kShp:
      return std::make_unique<ShpPartitioner>(cfg.shp);
    case PartitionerBackend::kRecursiveKMeans:
      return std::make_unique<RecursiveKMeansPartitioner>(cfg.kmeans,
                                                          vectors_per_block);
    case PartitionerBackend::kHypergraph:
      return std::make_unique<HypergraphPartitioner>(cfg.hypergraph);
  }
  throw std::invalid_argument("make_partitioner: unknown backend");
}

}  // namespace bandana
