// Versioned, checksummed store manifest — the durable root of the
// persistence layer (crash recovery + warm restart).
//
// The manifest lives in its own small file next to the block file and
// records everything Store::open needs to reconstruct serving state
// without retraining: store geometry, per-table config (layout order,
// policy, access counts), each table's local-block -> storage-block map,
// the store's one free list (so pushes keep recycling blocks across
// restarts instead of growing storage), its reservations (blocks handed to
// an unfinished install or trickle push, reclaimed on reopen), the trickle
// epoch, and the block-file path. Every storage block below next_block
// appears exactly once across the block maps, the free list and the
// reservations.
//
// Commit protocol (write_manifest): the whole manifest is serialized into
// one buffer, written to `<path>.tmp`, fsync'd, and then atomically
// rename(2)'d over `path`, followed by an fsync of the parent directory so
// the directory entry itself is durable. rename is the pointer flip: a
// crash at ANY instant leaves either the complete previous manifest or the
// complete new one — never a torn mix. Store orders its commits so the
// data a manifest references is durable (BlockStorage::sync) BEFORE the
// flip, and blocks a currently-durable manifest maps are never
// overwritten until a newer manifest that frees them has committed (writes
// go only to free or reserved blocks). Recovery therefore always lands on
// an entirely-old or entirely-new plan.
//
// Validation (load_manifest): magic, format version, payload length and an
// FNV-1a checksum over the payload must all match; any short read,
// truncation or flipped byte makes the manifest invalid. Callers decide
// what invalid means — Store::open refuses to guess and throws, while the
// manifest-routed storage factories treat "no valid manifest" as
// permission to start fresh (truncate).
//
// The format is fixed-width little-endian (the platforms we serve on);
// bump kManifestVersion for any layout change — older binaries then
// cleanly reject newer manifests instead of misparsing them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"

namespace bandana {

/// Current on-disk format version. Loaders reject anything else.
/// v2 added live-migration state: per-table retired tombstones, the
/// store-wide free pool, and pending block reservations.
inline constexpr std::uint32_t kManifestVersion = 2;

/// One table's recoverable state.
struct ManifestTable {
  /// Kept only for format v2: written as 0, ignored on load.
  BlockId first_block = 0;
  std::vector<VectorId> order;           ///< Layout permutation (position->v).
  std::vector<BlockId> block_map;        ///< local block -> storage block
  std::vector<std::uint32_t> access_counts;
  TablePolicy policy;
  /// Kept only for format v2: written empty. Older writers kept a
  /// per-table replacement bank here; Store::open merges it into the one
  /// free list.
  std::vector<BlockId> free_blocks;
  /// Tombstone: the table was migrated out (Store::retire_table) — its
  /// slot keeps the TableId but it no longer serves, and its blocks were
  /// returned to the store-wide free list. Written with an empty
  /// mapping; Store::open builds no table for it.
  bool retired = false;
};

/// Everything Store::open needs, plus the commit bookkeeping.
struct Manifest {
  std::uint64_t commit_seq = 0;     ///< Monotonic per-store commit counter.
  std::uint64_t trickle_epoch = 0;  ///< Completed mapping swaps (all tables).
  std::uint64_t block_bytes = 0;
  std::uint64_t vector_bytes = 0;
  std::uint64_t vectors_per_block = 0;
  std::uint64_t storage_blocks = 0;  ///< Blocks the backing file is sized to.
  std::uint64_t next_block = 0;      ///< First never-allocated storage block.
  /// Path of the block file this manifest describes, as given to the
  /// factory (empty for memory-backed stores, which are not recoverable).
  std::string block_file;
  std::vector<ManifestTable> tables;
  /// The store's one free list (bottom to top): blocks no mapping and no
  /// reservation holds, popped by every allocation before the file grows.
  std::vector<BlockId> free_pool;
  /// Pending records: blocks reserved at commit time by a streaming
  /// install (Store::begin_table_install) or a trickle push still in
  /// flight. No table maps them yet; recovery reclaims each list into the
  /// free list and drops the record, so a crash mid-stream leaves no
  /// half-table and leaks no storage.
  std::vector<std::vector<BlockId>> reservations;
};

/// Test seam for crash injection around the commit's atomic pointer flip.
/// `before_flip` runs after the tmp file is written and fsync'd but before
/// the rename; `after_flip` runs after the rename, before the directory
/// fsync. A hook that throws models a kill at exactly that boundary.
struct ManifestCommitHooks {
  std::function<void()> before_flip;
  std::function<void()> after_flip;
};

/// Serialize `m` and commit it crash-atomically at `path` (tmp file +
/// fsync + rename + parent-directory fsync). Throws std::runtime_error on
/// any I/O failure — the previous manifest (if any) is still intact then.
void write_manifest(const std::string& path, const Manifest& m,
                    const ManifestCommitHooks* hooks = nullptr);

/// Load and fully validate the manifest at `path`. Returns std::nullopt
/// (with a human-readable reason in *error when non-null) on a missing
/// file, bad magic, unknown version, truncation, checksum mismatch or any
/// structural overrun — never throws for invalid content.
std::optional<Manifest> load_manifest(const std::string& path,
                                      std::string* error = nullptr);

/// True iff `path` holds a complete, checksum-valid manifest. The
/// manifest-routed storage factories probe this to decide fresh-vs-preserve
/// on their first invocation.
bool manifest_valid(const std::string& path);

}  // namespace bandana
