// Social Hash Partitioner (paper §4.2.2; Kabiljo et al., VLDB 2017).
//
// Supervised placement: a training trace is a hypergraph whose vertices are
// embedding vectors and whose hyperedges are queries. SHP finds a balanced
// partition of vectors into 4 KB blocks minimizing average query *fanout*
// (Eq. 3: the number of distinct blocks a query touches), by recursive
// bisection with swap-based local refinement:
//
//   * Each level splits every bucket into two balanced halves.
//   * Refinement iterations compute, per vertex, the fanout gain of moving
//     it to the other half — for query q with n_A(q)/n_B(q) bucket-local
//     members on each side, moving v from A to B changes fanout by
//     -[n_A(q)==1] + [n_B(q)==0] — and then swap equal numbers of
//     highest-gain vertices pairwise while the combined gain is positive,
//     preserving balance exactly.
//   * Recursion stops when buckets reach vectors_per_block.
//
// Parallelism: every level refines its buckets (disjoint vertex ranges)
// through one ThreadPool::parallel_for call; idle workers take the next
// chunk of buckets, each with its own counting scratch. Without a pool, or
// with a one-thread pool, the same loop runs on the calling thread. A
// bucket's refinement is sequential and seeded by its level and position,
// so the plan is byte-identical for ANY thread count (pinned against
// recorded bytes by tests/test_shp.cpp, and across thread counts by
// tests/test_partitioner.cpp). The top levels hold fewer buckets than
// workers and leave some idle: a bucket's refinement is too short for
// fork/join inside it to pay.
//
// Per pass, each side's candidates are cut to the swap cap with
// nth_element and only those are sorted, and side counts are counted once
// per bucket and updated as each pair swaps — the same values a full sort
// and a recount give.
//
// Unlike K-means, SHP depends only on vector *identities*, so retraining
// the embedding values does not invalidate the layout (paper §4.2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "trace/trace.h"

namespace bandana {

struct ShpConfig {
  std::uint32_t vectors_per_block = 32;
  std::uint32_t iters_per_level = 16;  ///< Paper runs 16 refinement passes.
  /// Fraction of each side swapped per refinement pass. Gains are computed
  /// once per pass, so swapping every positive pair acts on stale counts
  /// and thrashes; damping converges to better partitions on sparse
  /// hypergraphs.
  double max_swap_fraction = 0.15;
  std::uint64_t seed = 1;
  /// Queries with more distinct vectors than this are dropped from the
  /// hypergraph (degenerate edges add cost but carry little signal). 0 = keep
  /// all.
  std::uint32_t max_query_size = 0;
};

/// Throws std::invalid_argument naming the offending field when the config
/// is degenerate (zero vectors_per_block, zero refinement iterations, or a
/// swap fraction outside (0, 1]). run_shp validates on entry, so a bad
/// config fails loudly instead of dividing by zero or looping forever.
void validate(const ShpConfig& config);

struct ShpResult {
  /// Placement order: position i holds order[i]; block = i / vectors_per_block.
  std::vector<VectorId> order;
  /// Per-vector hyperedge degree: in how many training queries the vector
  /// appeared (deduplicated per query). This is the statistic the
  /// frequency-based admission filter of §4.3.2 thresholds on.
  std::vector<std::uint32_t> access_counts;
  std::uint32_t levels = 0;
  std::uint64_t total_swaps = 0;
  double initial_avg_fanout = 0.0;  ///< Fanout of the random initial order.
  double final_avg_fanout = 0.0;    ///< Fanout after refinement (train set).
  /// Estimated peak resident bytes of the training run: the co-access CSR,
  /// the per-vector arrays, candidate lists, and one counting scratch per
  /// chunk that ran at once (at most one per worker). Excludes the input
  /// trace itself, which the caller owns — the Partitioner seam adds it
  /// (PartitionStats::peak_training_bytes).
  std::uint64_t peak_memory_bytes = 0;
};

/// Throws std::invalid_argument on a degenerate config or an empty training
/// trace (which would otherwise yield a silently random plan).
ShpResult run_shp(const Trace& train, std::uint32_t num_vectors,
                  const ShpConfig& config, ThreadPool* pool = nullptr);

}  // namespace bandana
