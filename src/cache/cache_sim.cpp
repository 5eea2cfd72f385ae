#include "cache/cache_sim.h"

#include <memory>
#include <stdexcept>

#include "cache/lru_cache.h"

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
  const std::uint32_t universe = layout.num_vectors();
  const bool uses_position = config.policy == PrefetchPolicy::kPosition ||
                             config.policy == PrefetchPolicy::kShadowPosition;
  const bool uses_shadow = config.policy == PrefetchPolicy::kShadow ||
                           config.policy == PrefetchPolicy::kShadowPosition;
  if (config.policy == PrefetchPolicy::kThreshold &&
      access_counts.size() != universe) {
    throw std::invalid_argument("kThreshold requires per-vector access counts");
  }

  const std::uint64_t capacity =
      config.unlimited ? universe : config.capacity_vectors;
  std::vector<double> points{0.0};
  std::size_t low_point = 0;
  if (uses_position && config.insertion_position > 0.0) {
    points.push_back(config.insertion_position);
    low_point = 1;
  }
  InsertionLru cache(universe, capacity, points);

  std::unique_ptr<InsertionLru> shadow;
  if (uses_shadow) {
    const auto shadow_cap = static_cast<std::uint64_t>(
        static_cast<double>(capacity) * config.shadow_multiplier);
    shadow = std::make_unique<InsertionLru>(universe,
                                            std::max<std::uint64_t>(1, shadow_cap));
  }

  // Tracks which cached vectors were admitted via prefetch and not yet
  // touched by the application (to attribute prefetch_hits).
  std::vector<std::uint8_t> prefetched(universe, 0);

  // Per-query dedup stamps.
  std::vector<std::uint32_t> vec_epoch(universe, 0);
  std::vector<std::uint32_t> block_epoch(layout.num_blocks(), 0);
  std::uint32_t epoch = 0;

  CacheSimResult result;
  result.lookups = trace.total_lookups();

  auto admit_prefetch = [&](VectorId u) {
    switch (config.policy) {
      case PrefetchPolicy::kNone:
        return;
      case PrefetchPolicy::kAll:
        cache.insert(u, 0);
        break;
      case PrefetchPolicy::kPosition:
        cache.insert(u, low_point);
        break;
      case PrefetchPolicy::kShadow:
        if (!shadow->contains(u)) return;
        cache.insert(u, 0);
        break;
      case PrefetchPolicy::kShadowPosition:
        cache.insert(u, shadow->contains(u) ? 0 : low_point);
        break;
      case PrefetchPolicy::kThreshold:
        if (access_counts[u] <= config.access_threshold) return;
        cache.insert(u, 0);
        break;
    }
    prefetched[u] = 1;
    ++result.prefetch_inserted;
  };

  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    ++epoch;
    for (VectorId v : trace.query(q)) {
      if (vec_epoch[v] == epoch) continue;  // duplicate within the query
      vec_epoch[v] = epoch;
      ++result.unique_lookups;

      if (shadow) {
        // The shadow cache sees only application reads, never prefetches.
        if (!shadow->access(v)) shadow->insert(v);
      }

      if (cache.access(v)) {
        ++result.hits;
        if (prefetched[v]) {
          ++result.prefetch_hits;
          prefetched[v] = 0;  // count first-touch only
        }
        continue;
      }

      // Miss. One block read per block per query (batched lookups), unless
      // batching is disabled (the paper's single-vector-read baseline).
      const BlockId b = layout.block_of(v);
      const bool block_already_read =
          config.batch_dedup && block_epoch[b] == epoch;
      if (!block_already_read) {
        block_epoch[b] = epoch;
        ++result.nvm_block_reads;
      }
      // The requested vector always enters at the MRU end.
      cache.insert(v, 0);
      prefetched[v] = 0;
      // Prefetch admission for co-located vectors (only on a fresh read;
      // if the block was read earlier in this query the policy already ran).
      if (!block_already_read && config.policy != PrefetchPolicy::kNone) {
        for (VectorId u : layout.block_members(b)) {
          if (u == v || cache.contains(u)) continue;
          admit_prefetch(u);
        }
      }
    }
  }
  return result;
}

}  // namespace bandana
