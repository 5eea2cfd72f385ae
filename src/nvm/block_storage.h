// Byte storage for NVM blocks.
//
// The timing model (nvm_device.h, nvm/io_engine.h) answers "when does this
// read complete"; BlockStorage answers "what bytes live in block b".
// bandana::Store composes the two. Three backends:
//  * MemoryBlockStorage — heap-backed, used by simulations and tests; its
//    view_block() lends the block in place instead of copying it.
//  * FileBlockStorage  — a real file accessed with pread/pwrite, so the
//    whole system can run against an actual SSD (the repro substitution for
//    NVM hardware).
//  * AsyncFileBlockStorage (nvm/async_file_storage.h) — the same file
//    contract, but read_blocks() and write_blocks() submit a whole
//    admission wave as one batched io_uring submission (thread-pool
//    pread/pwrite where io_uring is unavailable), so real-file serving
//    and republishing overlap I/O the way the simulated channels do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace bandana {

/// One entry of a batched read: fill `out` (block_bytes() long) from
/// block `block`.
struct BlockReadOp {
  BlockId block = 0;
  std::span<std::byte> out;
};

/// One entry of a batched write: overwrite block `block` from `in`
/// (block_bytes() long). Unlike reads, duplicate block ids in one batch
/// are NOT allowed — backends may overlap the writes, so two entries
/// targeting the same block would race with an unspecified winner.
struct BlockWriteOp {
  BlockId block = 0;
  std::span<const std::byte> in;
};

/// Backend-side write-path counters, sampled by Store::store_metrics().
struct BlockStorageWriteStats {
  /// Partial device writes re-submitted for the remaining byte range
  /// (io_uring short completions on the async backend).
  std::uint64_t short_resubmits = 0;
  /// True when the backend has a live io_uring registered-buffer pool
  /// (IORING_REGISTER_BUFFERS) carrying zero-copy reads and writes.
  bool registered_buffers_active = false;
};

class BlockStorage {
 public:
  virtual ~BlockStorage() = default;

  /// A leased buffer from the backend's registered wave-buffer pool (see
  /// lease_wave_buffer). Move-only; returns the buffer on destruction.
  class WaveBufferLease {
   public:
    WaveBufferLease() = default;
    WaveBufferLease(WaveBufferLease&& o) noexcept
        : owner_(o.owner_), index_(o.index_), span_(o.span_) {
      o.owner_ = nullptr;
      o.span_ = {};
    }
    WaveBufferLease& operator=(WaveBufferLease&& o) noexcept {
      if (this != &o) {
        release();
        owner_ = o.owner_;
        index_ = o.index_;
        span_ = o.span_;
        o.owner_ = nullptr;
        o.span_ = {};
      }
      return *this;
    }
    WaveBufferLease(const WaveBufferLease&) = delete;
    WaveBufferLease& operator=(const WaveBufferLease&) = delete;
    ~WaveBufferLease() { release(); }

    std::span<std::byte> bytes() const { return span_; }
    explicit operator bool() const { return owner_ != nullptr; }

   private:
    friend class BlockStorage;
    WaveBufferLease(const BlockStorage* owner, unsigned index,
                    std::span<std::byte> span)
        : owner_(owner), index_(index), span_(span) {}
    void release() {
      if (owner_ != nullptr) owner_->release_wave_buffer(index_);
      owner_ = nullptr;
      span_ = {};
    }
    const BlockStorage* owner_ = nullptr;
    unsigned index_ = 0;
    std::span<std::byte> span_;
  };

  virtual std::size_t block_bytes() const = 0;
  virtual std::uint64_t num_blocks() const = 0;

  /// Copy block `b` into `out` (out.size() == block_bytes()).
  virtual void read_block(BlockId b, std::span<std::byte> out) const = 0;

  /// Block `b`'s bytes (block_bytes() long), for a reader that only needs
  /// to look at them. MemoryBlockStorage returns a span of its own array
  /// and leaves `scratch` untouched, so a memory-backed reader holds no
  /// block buffer; every other backend (and any shim that overrides only
  /// read_block) sizes `scratch` to one block, runs read_block(b, scratch)
  /// and returns it. Lifetime: a view into the storage shows later
  /// write_block calls to `b` and dangles once the storage is destroyed,
  /// so the caller must exclude both for as long as it reads the view
  /// (BandanaTable holds it only inside one lookup, under the store's
  /// shared storage lock, which excludes growth, and the shard lock,
  /// which excludes the swap that could free and reuse the block).
  virtual std::span<const std::byte> view_block(
      BlockId b, std::vector<std::byte>& scratch) const {
    scratch.resize(block_bytes());
    read_block(b, scratch);
    return scratch;
  }

  /// Overwrite block `b` from `in` (in.size() == block_bytes()).
  virtual void write_block(BlockId b, std::span<const std::byte> in) = 0;

  /// Read many blocks; returns when all of `ops` are filled. Backends may
  /// overlap the reads (the async file backend sends the wave down the
  /// same submission path as write_blocks). Duplicate block ids are
  /// allowed. A file backend that hits an I/O error throws
  /// std::runtime_error naming the failing block, once no op of the wave
  /// is still in flight. The default is a sequential read_block loop.
  virtual void read_blocks(std::span<const BlockReadOp> ops) const;

  /// Write many blocks; returns when all of `ops` are durable in the
  /// backend's view (same durability as write_block — page cache for
  /// files). Backends may overlap the writes (the async file backend
  /// sends the wave down the same submission path as read_blocks), so
  /// duplicate block ids are not allowed. Errors are reported as for
  /// read_blocks. The default is a sequential write_block loop, which
  /// keeps single-method test shims and the two inline backends exact.
  virtual void write_blocks(std::span<const BlockWriteOp> ops);

  /// True when read_blocks() genuinely overlaps I/O and the store should
  /// stage a request's miss blocks through it in admission-sized waves
  /// rather than read one block per miss inline.
  virtual bool prefers_batched_reads() const { return false; }

  /// Backend write-path counters; the default backend has none.
  virtual BlockStorageWriteStats write_stats() const { return {}; }

  /// Host memory the backend holds for its own use (wave buffers), not
  /// counting the blocks themselves: MemoryBlockStorage's blocks stand in
  /// for the device.
  virtual std::uint64_t dram_bytes() const { return 0; }

  /// Flush every completed write to durable media. This is the durability
  /// barrier the manifest commit relies on: after sync() returns, all bytes
  /// written by earlier write_block/write_blocks calls survive a crash or
  /// power loss. fdatasync on the file backends (the async backend's write
  /// waves fully drain before write_blocks returns, so fdatasync covers
  /// them too); a no-op for memory storage, which has no durable media.
  virtual void sync() {}

  /// Try to lease a buffer of at least `bytes` from the backend's
  /// registered wave-buffer pool. Composing wave images (or staging wave
  /// reads) inside a leased buffer lets the async backend issue
  /// READ_FIXED/WRITE_FIXED against pre-registered memory — zero-copy, no
  /// per-wave pin/unpin. Returns an empty lease when the backend has no
  /// pool, every buffer is in use, or `bytes` exceeds the buffer size;
  /// callers fall back to their own heap buffer.
  virtual WaveBufferLease lease_wave_buffer(std::size_t bytes) const {
    (void)bytes;
    return {};
  }

  /// True if `other` reads and writes the same bytes as this storage (e.g.
  /// two FileBlockStorage handles on one inode). Lets the store skip the
  /// block migration when a growth factory resized the backing in place.
  virtual bool same_backing(const BlockStorage& other) const {
    return this == &other;
  }

 protected:
  /// Return pool buffer `index` to the free set. Only ever invoked by a
  /// lease this backend minted via make_wave_lease().
  virtual void release_wave_buffer(unsigned index) const { (void)index; }

  WaveBufferLease make_wave_lease(unsigned index,
                                  std::span<std::byte> span) const {
    return WaveBufferLease(this, index, span);
  }
};

/// A wave-sized scratch buffer for composing write images or staging
/// reads: a leased registered wave buffer when the backend offers one (a
/// batched read or write through it goes out as zero-copy READ_FIXED /
/// WRITE_FIXED), else a plain heap buffer. `buf` spans exactly the bytes
/// asked for.
struct WaveComposeBuffer {
  WaveComposeBuffer() = default;
  WaveComposeBuffer(const BlockStorage& storage, std::size_t bytes)
      : lease(storage.lease_wave_buffer(bytes)) {
    if (lease) {
      buf = lease.bytes().first(bytes);
    } else {
      heap.resize(bytes);
      buf = heap;
    }
  }
  BlockStorage::WaveBufferLease lease;
  std::vector<std::byte> heap;
  std::span<std::byte> buf;
};

/// A request-scoped set of prefetched block bytes: the store's read
/// pipeline collects a request's miss blocks, fetches them through
/// read_blocks() in admission-gated waves, and lets each table lookup
/// consume the staged bytes instead of issuing an inline read.
class StagedBlockReads {
 public:
  StagedBlockReads() = default;

  /// Reserve a slot for `b` (deduplicating). Call before fetch().
  void add(BlockId b) {
    if (index_.emplace(b, blocks_.size()).second) blocks_.push_back(b);
  }

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  std::span<const BlockId> blocks() const { return blocks_; }
  /// True if `b` has a reserved slot (fetched or not).
  bool contains(BlockId b) const { return index_.count(b) != 0; }

  /// Fetch every added block from `storage`, at most `wave_blocks` per
  /// read_blocks() call (0 = one wave). This is where admission control
  /// throttles *real* I/O: each wave is one batched submission, and wave
  /// k+1 is only submitted once wave k has completed. Stages into a
  /// leased wave buffer when the backend offers one (registered-buffer
  /// zero-copy reads), falling back to a request-local heap buffer.
  void fetch(const BlockStorage& storage, std::uint64_t wave_blocks = 0);

  /// Staged bytes of block `b`, or an empty span when b was not staged.
  std::span<const std::byte> find(BlockId b) const {
    const auto it = index_.find(b);
    if (it == index_.end() || staged_.buf.empty()) return {};
    return staged_.buf.subspan(it->second * block_bytes_, block_bytes_);
  }

 private:
  std::vector<BlockId> blocks_;
  std::unordered_map<BlockId, std::size_t> index_;
  WaveComposeBuffer staged_;  ///< Filled by fetch().
  std::size_t block_bytes_ = 0;
};

class MemoryBlockStorage final : public BlockStorage {
 public:
  MemoryBlockStorage(std::uint64_t num_blocks, std::size_t block_bytes);

  std::size_t block_bytes() const override { return block_bytes_; }
  std::uint64_t num_blocks() const override { return num_blocks_; }
  void read_block(BlockId b, std::span<std::byte> out) const override;
  void write_block(BlockId b, std::span<const std::byte> in) override;
  /// A span of the block inside the storage's own array: no copy.
  std::span<const std::byte> view_block(
      BlockId b, std::vector<std::byte>& scratch) const override;

 private:
  std::uint64_t num_blocks_;
  std::size_t block_bytes_;
  std::vector<std::byte> data_;
};

class FileBlockStorage : public BlockStorage {
 public:
  /// Opens `path` sized to num_blocks * block_bytes. With
  /// `preserve_contents` the existing bytes survive (growth resizes in
  /// place); otherwise the file is truncated to a clean slate first.
  FileBlockStorage(const std::string& path, std::uint64_t num_blocks,
                   std::size_t block_bytes, bool preserve_contents = false);
  ~FileBlockStorage() override;

  FileBlockStorage(const FileBlockStorage&) = delete;
  FileBlockStorage& operator=(const FileBlockStorage&) = delete;

  std::size_t block_bytes() const override { return block_bytes_; }
  std::uint64_t num_blocks() const override { return num_blocks_; }
  void read_block(BlockId b, std::span<std::byte> out) const override;
  void write_block(BlockId b, std::span<const std::byte> in) override;
  /// fdatasync: data blocks durable; file metadata (size) was already made
  /// durable by the sizing ftruncate at open.
  void sync() override;
  /// Two file storages share a backing iff they are open on the same inode.
  bool same_backing(const BlockStorage& other) const override;

 protected:
  int fd() const { return fd_; }
  /// The one pread/pwrite loop: moves `bytes` (a whole number of blocks)
  /// between `data` and the file from block `first` on, retrying EINTR
  /// and short transfers; throws std::runtime_error naming the failing
  /// block and byte (an EOF says "hit EOF"). A write only reads `data`.
  void transfer_blocks(BlockId first, std::byte* data, std::size_t bytes,
                       bool write) const;

 private:
  std::uint64_t num_blocks_;
  std::size_t block_bytes_;
  int fd_ = -1;
};

/// How a Store obtains its backing storage. Called with the exact geometry
/// once it is known (StoreBuilder knows it up front; the incremental
/// add_table path may call it again with a larger block count). Repeat
/// invocations must preserve already-written contents — the store streams
/// published blocks from the old storage to the new one in bounded chunks,
/// so old and new must be able to coexist (a same-path file factory
/// achieves this by resizing in place instead of truncating).
using BlockStorageFactory = std::function<std::unique_ptr<BlockStorage>(
    std::uint64_t num_blocks, std::size_t block_bytes)>;

/// Heap-backed simulation storage (the default).
BlockStorageFactory memory_storage_factory();

/// Real-file storage at `path` (pread/pwrite), the repro substitution for
/// NVM hardware. Fresh-vs-preserve on the first invocation is routed
/// through the manifest: when `manifest_path` names a checksum-valid
/// manifest the existing file is preserved (a recoverable store must not be
/// destroyed by reopening it) and its size is verified against the
/// requested geometry; with no valid manifest — including the default empty
/// path — the file is truncated to a clean slate. Growth re-invocations
/// always resize in place, preserving published blocks.
BlockStorageFactory file_storage_factory(std::string path,
                                         std::string manifest_path = "");

namespace detail {

/// num_blocks * block_bytes with overflow detection; throws naming the
/// requested geometry when the product wraps uint64 or exceeds off_t.
std::uint64_t checked_file_bytes(std::uint64_t num_blocks,
                                 std::size_t block_bytes);

/// The manifest-routed fresh-vs-preserve decision shared by the file
/// factories' first invocations: true (preserve) iff `manifest_path` names
/// a checksum-valid manifest; then also verifies the block file exists and
/// is at least the requested geometry, throwing on mismatch.
bool preserve_for_first_open(const std::string& path,
                             const std::string& manifest_path,
                             std::uint64_t num_blocks,
                             std::size_t block_bytes);

}  // namespace detail

}  // namespace bandana
