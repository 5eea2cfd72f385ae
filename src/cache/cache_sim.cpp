#include "cache/cache_sim.h"

#include "cache/prefetch_cache.h"

namespace bandana {

const char* to_string(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone: return "none";
    case PrefetchPolicy::kAll: return "all";
    case PrefetchPolicy::kPosition: return "position";
    case PrefetchPolicy::kShadow: return "shadow";
    case PrefetchPolicy::kShadowPosition: return "shadow+position";
    case PrefetchPolicy::kThreshold: return "threshold";
  }
  return "?";
}

CacheSimResult simulate_cache(const Trace& trace, const BlockLayout& layout,
                              const CachePolicyConfig& config,
                              std::span<const std::uint32_t> access_counts) {
  CachePolicyConfig cache_config = config;
  if (config.unlimited) cache_config.capacity_vectors = layout.num_vectors();
  PrefetchCache cache(layout, cache_config, access_counts);

  // Per-query dedup stamps.
  std::vector<std::uint32_t> vec_epoch(layout.num_vectors(), 0);
  std::vector<std::uint32_t> block_epoch(layout.num_blocks(), 0);
  std::uint32_t epoch = 0;

  CacheSimResult result;
  result.lookups = trace.total_lookups();
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    ++epoch;
    for (VectorId v : trace.query(q)) {
      if (vec_epoch[v] == epoch) continue;  // duplicate within the query
      vec_epoch[v] = epoch;
      ++result.unique_lookups;

      const PrefetchCache::Access access = cache.access(0, v);
      if (access != PrefetchCache::Access::kMiss) {
        ++result.hits;
        if (access == PrefetchCache::Access::kPrefetchHit) {
          ++result.prefetch_hits;
        }
        continue;
      }

      // Miss. One block read per block per query (batched lookups), unless
      // batching is disabled (the paper's single-vector-read baseline).
      const BlockId b = layout.block_of(v);
      const bool fresh_read = !config.batch_dedup || block_epoch[b] != epoch;
      if (fresh_read) {
        block_epoch[b] = epoch;
        ++result.nvm_block_reads;
      }
      result.prefetch_inserted +=
          cache.miss(0, v, b, fresh_read, [](std::uint32_t, std::size_t) {});
    }
  }
  return result;
}

}  // namespace bandana
