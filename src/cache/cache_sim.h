// Cache replay simulator — the measurement engine behind Figs. 6, 8-16 and
// Tables 1-2.
//
// Replays a trace against a DRAM cache of embedding vectors backed by a
// block-partitioned NVM table, counting 4 KB NVM block reads. Queries are
// batched: within one query, misses that fall in the same block cost one
// block read (this is exactly the fanout SHP minimizes). On each block read
// the admission policy decides which of the co-located vectors to keep:
//
//   kNone            — cache only the requested vector (the paper baseline).
//   kAll             — cache all co-located vectors at the MRU end (§4.3 Fig. 10).
//   kPosition        — cache all, but at queue depth `insertion_position`
//                      (§4.3.1 Fig. 11a).
//   kShadow          — cache a prefetched vector at MRU only if a shadow
//                      LRU of past application reads contains it (Fig. 11b).
//   kShadowPosition  — shadow hit -> MRU, shadow miss -> insertion_position
//                      (Fig. 11c).
//   kThreshold       — cache a prefetched vector only if its SHP-run access
//                      count exceeds `access_threshold` (§4.3.2 Fig. 12 —
//                      Bandana's production policy).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "partition/layout.h"
#include "trace/trace.h"

namespace bandana {

enum class PrefetchPolicy {
  kNone,
  kAll,
  kPosition,
  kShadow,
  kShadowPosition,
  kThreshold,
};

const char* to_string(PrefetchPolicy p);

struct CachePolicyConfig {
  std::uint64_t capacity_vectors = 80'000;
  PrefetchPolicy policy = PrefetchPolicy::kNone;
  /// Queue depth fraction for kPosition / kShadowPosition (0 = MRU).
  double insertion_position = 0.5;
  /// Shadow cache size as a multiple of the real cache size (Fig. 11b).
  double shadow_multiplier = 1.5;
  /// Admission threshold t for kThreshold: prefetch only vectors whose
  /// SHP-run access count is strictly greater than t.
  std::uint32_t access_threshold = 10;
  /// Unlimited cache (no evictions), for the §4.2 experiments.
  bool unlimited = false;
  /// Batched queries: misses of one query that fall in the same block share
  /// one 4 KB read (how Bandana issues IO — and the benefit partitioning
  /// creates even before any prefetched vector is *retained*). The paper's
  /// baseline policy (§4.1) issues an independent NVM read per vector:
  /// set batch_dedup = false to model it.
  bool batch_dedup = true;
};

struct CacheSimResult {
  std::uint64_t lookups = 0;         ///< Total vector lookups replayed.
  std::uint64_t unique_lookups = 0;  ///< Deduplicated within each query.
  std::uint64_t hits = 0;            ///< Unique lookups served from DRAM.
  std::uint64_t nvm_block_reads = 0; ///< 4 KB reads issued to NVM.
  std::uint64_t prefetch_inserted = 0;
  std::uint64_t prefetch_hits = 0;   ///< Hits on vectors cached via prefetch.

  double hit_rate() const {
    return unique_lookups ? static_cast<double>(hits) /
                                static_cast<double>(unique_lookups)
                          : 0.0;
  }
  /// Application bytes per NVM byte read, given vector/block sizes.
  double effective_bandwidth(std::size_t vector_bytes,
                             std::size_t block_bytes) const {
    if (nvm_block_reads == 0) return 0.0;
    return static_cast<double>(unique_lookups - hits) *
           static_cast<double>(vector_bytes) /
           (static_cast<double>(nvm_block_reads) *
            static_cast<double>(block_bytes));
  }
};

/// Replay `trace` under `config` on a one-shard PrefetchCache, the cache
/// the store serves. `access_counts` is required for kThreshold
/// (per-vector SHP-run query counts; see ShpResult). Throws
/// std::invalid_argument where PrefetchCache::check does.
CacheSimResult simulate_cache(const Trace& trace, const BlockLayout& layout,
                              const CachePolicyConfig& config,
                              std::span<const std::uint32_t> access_counts = {});

/// The paper's §4.1 baseline policy: cache single requested vectors, one
/// independent NVM read per missed vector (no batching, no prefetch).
inline CachePolicyConfig baseline_policy(std::uint64_t capacity,
                                         bool unlimited = false) {
  CachePolicyConfig pc;
  pc.capacity_vectors = capacity;
  pc.policy = PrefetchPolicy::kNone;
  pc.unlimited = unlimited;
  pc.batch_dedup = false;
  return pc;
}

/// Paper's headline metric: block reads of the baseline policy divided by
/// block reads of the evaluated policy, minus 1.
inline double effective_bw_increase(std::uint64_t baseline_reads,
                                    std::uint64_t policy_reads) {
  if (policy_reads == 0) return 0.0;
  return static_cast<double>(baseline_reads) /
             static_cast<double>(policy_reads) -
         1.0;
}

}  // namespace bandana
