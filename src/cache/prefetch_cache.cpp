#include "cache/prefetch_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bandana {

namespace {

bool uses_position(PrefetchPolicy p) {
  return p == PrefetchPolicy::kPosition || p == PrefetchPolicy::kShadowPosition;
}
bool uses_shadow(PrefetchPolicy p) {
  return p == PrefetchPolicy::kShadow || p == PrefetchPolicy::kShadowPosition;
}

/// Shadow entries beside `capacity` cache entries (at least one). The
/// product is checked before the cast, which would overflow past the limit.
std::uint64_t shadow_capacity(double multiplier, std::uint64_t capacity) {
  const double entries = static_cast<double>(capacity) * multiplier;
  if (!(multiplier >= 0.0) ||
      !(entries < static_cast<double>(ShardedInsertionLru::kNodeLimit))) {
    throw std::invalid_argument("PrefetchCache: bad shadow multiplier " +
                                std::to_string(multiplier));
  }
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(entries));
}

/// Vectors per shard when block b goes to shard b % num_shards.
std::vector<std::uint32_t> striped_shard_sizes(const BlockLayout& layout,
                                               std::uint32_t num_shards) {
  const std::uint32_t n = layout.num_vectors();
  const std::uint32_t vpb = layout.vectors_per_block();
  std::vector<std::uint32_t> sizes(num_shards, 0);
  for (std::uint32_t first = 0, b = 0; first < n; first += vpb, ++b) {
    sizes[b % num_shards] += std::min(vpb, n - first);
  }
  return sizes;
}

std::vector<double> insertion_points(const CachePolicyConfig& config) {
  if (uses_position(config.policy) && config.insertion_position > 0.0) {
    return {0.0, config.insertion_position};
  }
  return {0.0};
}

}  // namespace

void PrefetchCache::check(const CachePolicyConfig& config,
                          std::size_t num_vectors, std::size_t num_counts) {
  if (static_cast<unsigned>(config.policy) >
      static_cast<unsigned>(PrefetchPolicy::kThreshold)) {
    throw std::invalid_argument(
        "PrefetchCache: unknown prefetch policy " +
        std::to_string(static_cast<unsigned>(config.policy)));
  }
  if (config.policy == PrefetchPolicy::kThreshold &&
      num_counts != num_vectors) {
    throw std::invalid_argument("kThreshold requires per-vector access counts");
  }
  if (uses_position(config.policy) &&
      !(config.insertion_position >= 0.0 && config.insertion_position < 1.0)) {
    throw std::invalid_argument("PrefetchCache: insertion position " +
                                std::to_string(config.insertion_position) +
                                " is outside [0, 1)");
  }
  if (uses_shadow(config.policy)) {
    shadow_capacity(config.shadow_multiplier, config.capacity_vectors);
  }
}

PrefetchCache::PrefetchCache(const BlockLayout& layout,
                             const CachePolicyConfig& config,
                             std::span<const std::uint32_t> access_counts,
                             std::uint32_t num_shards)
    : layout_(&layout),
      lru_(layout.num_vectors(), config.capacity_vectors,
           insertion_points(config), striped_shard_sizes(layout, num_shards)),
      prefetches_(config.policy != PrefetchPolicy::kNone),
      shadow_gates_(config.policy == PrefetchPolicy::kShadow),
      cold_point_(lru_.num_insertion_points() - 1) {
  check(config, layout.num_vectors(), access_counts.size());
  if (uses_shadow(config.policy)) {
    // The LRU's capacity, which the split across shards can raise.
    shadow_ = std::make_unique<ShardedInsertionLru>(
        layout.num_vectors(),
        shadow_capacity(config.shadow_multiplier, lru_.capacity()),
        std::vector<double>{0.0}, striped_shard_sizes(layout, num_shards));
  }
  if (config.policy == PrefetchPolicy::kThreshold) {
    const std::vector<VectorId>& order = layout.order();
    admit_bits_.assign((order.size() + 63) / 64, 0);
    for (std::size_t p = 0; p < order.size(); ++p) {
      if (access_counts[order[p]] > config.access_threshold) {
        admit_bits_[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
  }
}

}  // namespace bandana
