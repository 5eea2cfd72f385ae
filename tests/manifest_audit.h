// Block accounting audit for a committed manifest, shared by the recovery,
// store and stress suites: every storage block id below next_block must
// appear exactly once across the tables' block maps, the per-table free
// lists, the free pool and the pending records. A block that appears
// nowhere is leaked until the store is rebuilt; one that appears twice can
// be handed out while still mapped.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/manifest.h"

namespace bandana {

/// Passes when `m` accounts for every block in [0, m.next_block) exactly
/// once and names no block at or past next_block; otherwise the failure
/// message counts the missing, duplicated and out-of-range ids.
inline ::testing::AssertionResult manifest_accounts_every_block(
    const Manifest& m) {
  std::vector<std::uint32_t> seen(m.next_block, 0);
  std::uint64_t out_of_range = 0;
  const auto count = [&](const std::vector<BlockId>& blocks) {
    for (const BlockId b : blocks) {
      if (b < m.next_block) {
        ++seen[b];
      } else {
        ++out_of_range;
      }
    }
  };
  for (const ManifestTable& t : m.tables) {
    count(t.block_map);
    count(t.free_blocks);
  }
  count(m.free_pool);
  for (const std::vector<BlockId>& r : m.reservations) count(r);
  std::uint64_t missing = 0;
  std::uint64_t duplicated = 0;
  for (const std::uint32_t n : seen) {
    if (n == 0) ++missing;
    if (n > 1) duplicated += n - 1;
  }
  if (missing == 0 && duplicated == 0 && out_of_range == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << missing << " of " << m.next_block << " blocks missing, "
         << duplicated << " duplicated, " << out_of_range
         << " past next_block";
}

/// The same audit on the manifest committed at `path`.
inline ::testing::AssertionResult manifest_accounts_every_block(
    const std::string& path) {
  std::string err;
  const auto m = load_manifest(path, &err);
  if (!m) return ::testing::AssertionFailure() << "no manifest: " << err;
  return manifest_accounts_every_block(*m);
}

}  // namespace bandana
