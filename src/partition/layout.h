// Physical placement of embedding vectors into NVM blocks.
//
// A BlockLayout is a permutation of a table's vectors: position i of the
// order lives in block i / vectors_per_block. The partitioners (K-means,
// SHP) produce orders; the cache simulator and the Store consume the
// vector -> block mapping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace bandana {

class BlockLayout {
 public:
  /// Identity order: vector v at position v (the paper's "original table").
  static BlockLayout identity(std::uint32_t num_vectors,
                              std::uint32_t vectors_per_block);

  /// Uniformly random order (control baseline).
  static BlockLayout random(std::uint32_t num_vectors,
                            std::uint32_t vectors_per_block, std::uint64_t seed);

  /// order[i] = vector stored at position i; must be a permutation.
  static BlockLayout from_order(std::vector<VectorId> order,
                                std::uint32_t vectors_per_block);

  std::uint32_t num_vectors() const {
    return static_cast<std::uint32_t>(order_.size());
  }
  std::uint32_t vectors_per_block() const { return vectors_per_block_; }
  std::uint32_t num_blocks() const {
    return (num_vectors() + vectors_per_block_ - 1) / vectors_per_block_;
  }

  BlockId block_of(VectorId v) const { return position_of_[v] / vectors_per_block_; }
  std::uint32_t position_of(VectorId v) const { return position_of_[v]; }

  /// Vectors co-located in block b (the prefetch set), in position order.
  std::span<const VectorId> block_members(BlockId b) const;

  const std::vector<VectorId>& order() const { return order_; }

  /// Heap bytes of the order and position arrays (8 B per vector).
  std::uint64_t dram_bytes() const {
    return order_.capacity() * sizeof(VectorId) +
           position_of_.capacity() * sizeof(std::uint32_t);
  }

 private:
  BlockLayout(std::vector<VectorId> order, std::uint32_t vpb);

  std::vector<VectorId> order_;        // position -> vector
  std::vector<std::uint32_t> position_of_;  // vector -> position
  std::uint32_t vectors_per_block_;
};

/// Per-block diff of two layouts over the same vector universe: entry b is
/// nonzero iff block b's member list (the exact position order within the
/// block) differs between `from` and `to`, or exists in only one of them.
/// A retrained plan usually leaves many blocks untouched — SHP refinement
/// moves a minority of vectors — and a trickle republish skips unchanged
/// blocks entirely (they keep serving from their existing storage).
/// Sized to max(from.num_blocks(), to.num_blocks()).
std::vector<std::uint8_t> changed_blocks(const BlockLayout& from,
                                         const BlockLayout& to);

/// Number of nonzero entries of changed_blocks(from, to); 0 means the two
/// layouts place every vector identically (republish can no-op).
std::uint64_t count_changed_blocks(const BlockLayout& from,
                                   const BlockLayout& to);

}  // namespace bandana
