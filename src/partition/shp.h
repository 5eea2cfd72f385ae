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
// Parallelism: run_shp trains a list of tables in one call, and with a
// pool every bucket is a pool task. A finished bucket submits its two
// children, so there is no barrier between levels, and other tables'
// buckets fill the workers that one table's single-bucket top levels leave
// idle. A bucket's refinement is sequential and seeded by its depth and
// range start, so the plan is byte-identical for ANY thread count (pinned
// against recorded bytes by tests/test_shp.cpp, across thread counts by
// tests/test_partitioner.cpp, and for the 8 paper tables trained together
// by tests/test_trainer.cpp). Without a pool, or with a one-thread pool,
// the calling thread trains each table in turn, its buckets depth first.
//
// The calling thread owns every table's memory. It admits tables largest
// first, at most one per worker in flight; for each it builds the
// co-access graph, the order, side and access-count arrays and the initial
// fanout, and when the table's last bucket finishes it computes the final
// fanout and frees the graph. Workers allocate nothing that grows with a
// table: each running bucket borrows one of pool->size() refinement
// scratches (side counts, gains, gain histogram, tie and partition
// buffer), built on the calling thread at the largest table's query count,
// size and degree bound (the most queries one vector appears in, counted
// from the traces before any table is admitted). glibc gives each thread its
// own malloc arena and keeps memory freed there: a prototype that trained
// whole tables as pool tasks, each allocating on its worker, raised
// bench_perf's paper8-dram4 peak RSS by 7.5 MiB (55.0 -> 62.5 MiB), a rise
// MALLOC_ARENA_MAX=1 removed, and building all eight graphs up front on
// the calling thread still added 4.2 MiB. With the in-flight bound and
// caller-side allocation, peak RSS stays flat.
//
// The refinement kernel does the integer arithmetic of the definition
// above with few loads and no sort:
//   * Each query's bucket-local counts of both sides share one 8-byte
//     entry, counted once per bucket and updated as each vertex flips, so a
//     gain or a flip touches one cache line per query, and a gain adds
//     [n_here==1] - [n_there==0] without branches.
//   * Swaps come from a histogram of each side's integer gains, not from
//     sorting (gain, id) pairs. The pairs a full descending sort would
//     swap are read off the histogram: how many (the i-th pair swaps while
//     its gains sum above zero, up to the cap) and each side's threshold
//     gain. Every vertex above its side's threshold flips, and so do the
//     largest ids at it (nth_element over the ties), which is the sort's
//     tie-break. Flips of one pass commute, so the pairs need no order.
// The plans are byte-identical to the sort-based refinement's.
//
// Unlike K-means, SHP depends only on vector *identities*, so retraining
// the embedding values does not invalidate the layout (paper §4.2.2).
#pragma once

#include <cstdint>
#include <span>
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
  /// Estimated peak resident bytes of the run while this table was in
  /// flight: for every table in flight at that moment its training trace,
  /// co-access CSR and per-vector arrays, plus the refinement scratch of
  /// every worker (one scratch when the calling thread trains alone). For
  /// a one-table call this is the table's own training peak.
  std::uint64_t peak_memory_bytes = 0;
};

/// One table of a run_shp call. `train` must outlive the call.
struct ShpTable {
  const Trace* train = nullptr;
  std::uint32_t num_vectors = 0;
  ShpConfig config;
};

/// Trains every table and returns their results in the same order. Throws
/// std::invalid_argument, before any training, on a degenerate config, an
/// empty (or null) training trace, which would otherwise yield a silently
/// random plan, or a trace id past its table. A failure while training
/// (std::bad_alloc) is rethrown once no bucket of any table is still
/// running.
std::vector<ShpResult> run_shp(std::span<const ShpTable> tables,
                               ThreadPool* pool = nullptr);

/// One table: the one-element call of the list form above.
ShpResult run_shp(const Trace& train, std::uint32_t num_vectors,
                  const ShpConfig& config, ThreadPool* pool = nullptr);

}  // namespace bandana
