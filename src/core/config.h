// Public configuration for the Bandana store.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "cache/cache_sim.h"
#include "common/types.h"
#include "nvm/nvm_config.h"

namespace bandana {

struct StoreConfig {
  /// NVM transfer unit; every miss costs one such read.
  std::size_t block_bytes = kDefaultBlockBytes;

  /// Bytes per embedding vector; must divide block_bytes. 128 B = the
  /// paper's 64 x fp16 vectors, giving 32 vectors per block.
  std::size_t vector_bytes = kDefaultVectorBytes;

  /// Timing model of the backing device.
  NvmDeviceConfig device;

  /// When true the store tracks simulated IO latency through the device
  /// model; when false it only counts block reads (fast replay mode).
  bool simulate_timing = true;

  /// Independently-locked DRAM cache shards per table, so concurrent
  /// requests to the *same* table proceed in parallel. 0 = one shard per
  /// hardware thread. 1 reproduces the seed single-LRU behavior exactly
  /// (hit/miss/eviction order), which the fidelity tests rely on. Each
  /// table clamps the count to its block and cache-entry counts; vectors
  /// are striped by block so prefetch admission stays shard-local.
  std::uint32_t cache_shards = 0;

  std::uint32_t vectors_per_block() const {
    return static_cast<std::uint32_t>(block_bytes / vector_bytes);
  }

  std::uint32_t resolved_cache_shards() const {
    return cache_shards != 0
               ? cache_shards
               : std::max(1u, std::thread::hardware_concurrency());
  }
};

/// Per-table runtime policy (produced by the Trainer or set manually).
struct TablePolicy {
  std::uint64_t cache_vectors = 0;  ///< DRAM budget for this table.
  PrefetchPolicy policy = PrefetchPolicy::kThreshold;
  std::uint32_t access_threshold = 10;
  double insertion_position = 0.5;
  double shadow_multiplier = 1.5;

  bool operator==(const TablePolicy&) const = default;

  /// The table's cache: at least one entry, admitting by this policy.
  CachePolicyConfig cache_policy() const {
    return {std::max<std::uint64_t>(1, cache_vectors), policy,
            insertion_position, shadow_multiplier, access_threshold};
  }
};

}  // namespace bandana
