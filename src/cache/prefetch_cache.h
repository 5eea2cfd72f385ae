// The one prefetch-admission cache (paper §4.3): a sharded insertion-point
// LRU over one table's vectors, the optional shadow LRU and the six
// policies' admission rule (cache_sim.h). simulate_cache drives a one-shard
// core over a trace; BandanaTable drives one per layout state under its
// shard locks and keeps the slab bytes. Tuning a table's threshold by
// simulation (§4.3.3) is sound because both run this code.
//
// Vectors are striped by block (shard_of(v) = block_of(v) % shards), so a
// miss, its block and the admission of the block's members stay in one
// shard. kThreshold sets one admit bit per layout position at
// construction, so a member it rejects costs one bit test and no cache
// load. The layout must outlive the core. Not thread-safe: the caller
// holds shard s's lock around every call that names s or an id in s.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache_sim.h"
#include "cache/sharded_lru.h"
#include "partition/layout.h"

namespace bandana {

class PrefetchCache {
 public:
  /// A cache of config.capacity_vectors entries over `layout`, admitting by
  /// config.policy and its parameters (`unlimited` and `batch_dedup` are
  /// the simulator's). Throws std::invalid_argument for what check()
  /// rejects or a capacity the LRU rejects.
  PrefetchCache(const BlockLayout& layout, const CachePolicyConfig& config,
                std::span<const std::uint32_t> access_counts = {},
                std::uint32_t num_shards = 1);
  // Neither copied nor moved: layout_ usually points into its owner.
  PrefetchCache(const PrefetchCache&) = delete;
  PrefetchCache& operator=(const PrefetchCache&) = delete;

  /// Throws std::invalid_argument unless config.policy is one of the six;
  /// kThreshold has one of `num_counts` access counts per vector; under
  /// kPosition and kShadowPosition insertion_position is in [0, 1); and
  /// under kShadow and kShadowPosition shadow_multiplier is a number >= 0
  /// whose shadow on capacity_vectors stays below the node limit.
  static void check(const CachePolicyConfig& config, std::size_t num_vectors,
                    std::size_t num_counts);

  std::uint32_t shard_of(VectorId v) const {
    return layout_->block_of(v) % lru_.num_shards();
  }

  enum class Access { kMiss, kHit, kPrefetchHit };
  /// One application read of v. The shadow sees every read and no
  /// prefetch; a hit promotes v. kPrefetchHit: the first read of a vector
  /// a prefetch cached.
  Access access(std::uint32_t s, VectorId v) {
    if (shadow_ && !shadow_->access(s, v)) shadow_->insert(s, v);
    if (!lru_.access(s, v)) return Access::kMiss;
    return lru_.take_prefetched(v) ? Access::kPrefetchHit : Access::kHit;
  }

  /// Cache v, which access() just missed, at MRU. On a fresh read of its
  /// block (not one already paid for in the same scope) then admit the
  /// block's other members by the policy, marked prefetched. Calls
  /// on_cached(slot, i) for each vector cached, i its index in the block.
  /// Returns the members admitted.
  template <typename OnCached>
  std::uint32_t miss(std::uint32_t s, VectorId v, BlockId block,
                     bool fresh_read, OnCached&& on_cached) {
    const std::size_t first =
        std::size_t{block} * layout_->vectors_per_block();
    lru_.insert(s, v);
    on_cached(lru_.slot_of(v), layout_->position_of(v) - first);
    if (!fresh_read || !prefetches_) return 0;
    const std::span<const VectorId> members = layout_->block_members(block);
    std::uint32_t admitted = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t p = first + i;
      if (!admit_bits_.empty() &&
          ((admit_bits_[p / 64] >> (p % 64)) & 1) == 0) {
        continue;
      }
      const VectorId u = members[i];
      const bool seen = shadow_ && shadow_->contains(u);
      // If the block's own prefetches evicted v, it stays out.
      if ((shadow_gates_ && !seen) || u == v || lru_.contains(u)) continue;
      lru_.insert(s, u, seen ? 0 : cold_point_, /*prefetched=*/true);
      on_cached(lru_.slot_of(u), i);
      ++admitted;
    }
    return admitted;
  }

  /// Take `other`'s entries, order, marks and shadow, keeping this core's
  /// admit bits (a warm swap: same layout order, policy and capacity).
  void copy_entries_from(const PrefetchCache& other) {
    lru_ = other.lru_;
    if (shadow_) *shadow_ = *other.shadow_;
  }
  /// Drop block b's members from the cache (not from the shadow).
  void drop_block(BlockId b) {
    for (const VectorId v : layout_->block_members(b)) {
      lru_.erase(b % lru_.num_shards(), v);
    }
  }

  const ShardedInsertionLru& lru() const { return lru_; }
  std::uint64_t shadow_dram_bytes() const {
    return shadow_ ? shadow_->dram_bytes() : 0;
  }
  std::uint64_t admit_bits_dram_bytes() const {
    return admit_bits_.capacity() * sizeof(std::uint64_t);
  }

 private:
  const BlockLayout* layout_;
  ShardedInsertionLru lru_;
  std::unique_ptr<ShardedInsertionLru> shadow_;
  std::vector<std::uint64_t> admit_bits_;  ///< kThreshold, by position.
  bool prefetches_;    ///< Any policy but kNone.
  bool shadow_gates_;  ///< kShadow: admit only what the shadow holds.
  /// Where a prefetch the shadow has not seen goes: the low point under
  /// kPosition and kShadowPosition, else MRU.
  std::size_t cold_point_;
};

}  // namespace bandana
