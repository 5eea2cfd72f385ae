// Pluggable partitioner backends behind one seam.
//
// Every supervised placement strategy in the paper reduces to the same
// contract: consume a training signal (co-access trace and/or embedding
// values), emit a placement order plus per-vector access counts. The
// Partitioner interface pins that contract so Trainer, OnlineRetrainer and
// the benches select a backend by config instead of hard-coding run_shp:
//
//   * ShpPartitioner          — recursive bisection (paper §4.2.2). The
//     default; byte-identical to calling run_shp directly.
//   * RecursiveKMeansPartitioner — semantic clustering of embedding values
//     (paper §4.2.1). Requires `values`; throws without them.
//   * HypergraphPartitioner   — greedy min-cut block filling over the
//     co-access hypergraph; cheaper single-pass alternative to SHP.
//
// partition_stream() is the bounded-memory entry point: it consumes a
// TraceSource chunk by chunk, reservoir-samples the training set (Vitter's
// Algorithm R) and accumulates access counts over the FULL stream, so peak
// training memory is governed by the reservoir size, not the trace length.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "partition/hypergraph.h"
#include "partition/kmeans.h"
#include "partition/shp.h"
#include "trace/embedding_table.h"
#include "trace/trace.h"
#include "trace/trace_stream.h"

namespace bandana {

enum class PartitionerBackend : std::uint8_t {
  kShp = 0,
  kRecursiveKMeans = 1,
  kHypergraph = 2,
};

const char* backend_name(PartitionerBackend backend);

struct PartitionerConfig {
  PartitionerBackend backend = PartitionerBackend::kShp;
  ShpConfig shp;
  RecursiveKMeansConfig kmeans;
  HypergraphConfig hypergraph;
  /// Streaming mode: reservoir capacity in queries (0 = train on the full
  /// trace; partition_stream requires nonzero).
  std::size_t max_train_queries = 0;
  /// Streaming mode: queries pulled from the TraceSource per chunk.
  std::size_t chunk_queries = 4096;
  /// Seed of the reservoir sampler (independent of the backend seeds).
  std::uint64_t stream_seed = 1;
};

/// Validates the selected backend's config plus the streaming knobs
/// (chunk_queries must be > 0). Throws std::invalid_argument.
void validate(const PartitionerConfig& config);

struct PartitionResult {
  /// Placement order: position i holds order[i]; block = i / vectors_per_block.
  std::vector<VectorId> order;
  /// Per-vector access frequency (deduplicated per query). Batch mode:
  /// hyperedge degree over the backend's kept edges. Streaming mode:
  /// accumulated over the FULL stream (every deduplicated query), not just
  /// the sampled training set — the admission filter sees all traffic.
  std::vector<std::uint32_t> access_counts;
  double initial_avg_fanout = 0.0;
  double final_avg_fanout = 0.0;
  /// Estimated peak resident training bytes, input trace (or reservoir +
  /// in-flight chunk) included.
  std::uint64_t peak_training_bytes = 0;
  /// Streaming mode only: queries seen / queries kept in the sample.
  std::size_t stream_queries = 0;
  std::size_t sampled_queries = 0;
};

/// The Partitioner view of one table's SHP result (the trace is already in
/// its memory estimate). Trainer uses it for tables trained together by the
/// list form of run_shp.
PartitionResult to_partition_result(ShpResult shp);

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual const char* name() const = 0;
  /// Train on a fully materialized trace. `values` may be nullptr for
  /// trace-only backends; RecursiveKMeansPartitioner throws without it.
  virtual PartitionResult partition(const Trace& train,
                                    std::uint32_t num_vectors,
                                    const EmbeddingTable* values,
                                    ThreadPool* pool) const = 0;
  /// Bounded-memory training: reservoir-sample `max_train_queries` queries
  /// from the source in `chunk_queries`-sized chunks, then run the backend
  /// on the sample. Never materializes the full trace. `sampled_out`
  /// (optional) receives the sampled trace, for callers that tune on it.
  PartitionResult partition_stream(TraceSource& source,
                                   std::uint32_t num_vectors,
                                   const PartitionerConfig& config,
                                   const EmbeddingTable* values,
                                   ThreadPool* pool,
                                   Trace* sampled_out = nullptr) const;
};

class ShpPartitioner final : public Partitioner {
 public:
  explicit ShpPartitioner(const ShpConfig& config) : config_(config) {}
  const char* name() const override { return "shp"; }
  PartitionResult partition(const Trace& train, std::uint32_t num_vectors,
                            const EmbeddingTable* values,
                            ThreadPool* pool) const override;

 private:
  ShpConfig config_;
};

class RecursiveKMeansPartitioner final : public Partitioner {
 public:
  RecursiveKMeansPartitioner(const RecursiveKMeansConfig& config,
                             std::uint32_t vectors_per_block)
      : config_(config), vectors_per_block_(vectors_per_block) {}
  const char* name() const override { return "kmeans"; }
  PartitionResult partition(const Trace& train, std::uint32_t num_vectors,
                            const EmbeddingTable* values,
                            ThreadPool* pool) const override;

 private:
  RecursiveKMeansConfig config_;
  std::uint32_t vectors_per_block_;
};

class HypergraphPartitioner final : public Partitioner {
 public:
  explicit HypergraphPartitioner(const HypergraphConfig& config)
      : config_(config) {}
  const char* name() const override { return "hypergraph"; }
  PartitionResult partition(const Trace& train, std::uint32_t num_vectors,
                            const EmbeddingTable* values,
                            ThreadPool* pool) const override;

 private:
  HypergraphConfig config_;
};

/// Builds the configured backend. `vectors_per_block` is authoritative: it
/// overrides the per-backend block-size fields so every layer agrees with
/// StoreConfig. Validates the config.
std::unique_ptr<Partitioner> make_partitioner(const PartitionerConfig& config,
                                              std::uint32_t vectors_per_block);

}  // namespace bandana
