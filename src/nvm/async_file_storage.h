// AsyncFileBlockStorage — real-file block storage whose batched reads
// AND writes overlap, the way the simulated NVM channels do.
//
// Same byte contract as FileBlockStorage (it *is* one: single-block
// read_block/write_block, in-place growth preserve, inode-based
// same_backing), plus overlapped read_blocks() / write_blocks(). Both go
// down one wave path; the direction picks only the opcode, the error
// wording and whether a short completion counts in write_stats():
//
//  * runs — adjacent ops whose blocks are consecutive on disk and whose
//    bytes are consecutive in memory coalesce into one run, one SQE. A
//    trickle or publish wave composed in order into a leased wave buffer
//    over a contiguous region collapses to a few large writes; staged
//    reads rarely merge, but do when they can.
//  * io_uring path — the wave's runs are written into the submission
//    queue and submitted with one io_uring_enter(GETEVENTS) call per
//    in-kernel batch (waves larger than the ring are chunked); the kernel
//    services them concurrently and we reap every completion. The rings
//    are built with raw syscalls (no liburing dependency; the original
//    5.1 op set, so any io_uring kernel works). A small pool of rings
//    (Options::ring_count) lets concurrent request streams overlap their
//    waves: a wave takes the first free ring, or a round-robin one when
//    every ring is busy.
//  * thread-pool fallback — where the io_uring syscalls are unavailable
//    (older kernels, seccomp-filtered sandboxes, non-Linux), the same runs
//    fan out as pread/pwrite loops on a small owned ThreadPool; each wave
//    waits on its own completion latch, so concurrent waves share workers
//    without waiting on each other's I/O. `Options::force_thread_pool`
//    pins this path for tests.
//
// Zero-copy wave buffers: at construction the storage allocates a small
// pool of wave-sized buffers (Options::wave_buffer_blocks x block_bytes,
// Options::wave_buffer_count of them) and registers them on every ring
// with IORING_REGISTER_BUFFERS, plus the backing fd with
// IORING_REGISTER_FILES. Producers lease a pool buffer through
// BlockStorage::lease_wave_buffer() — the staged-read path stages into
// one, publish/republish/trickle waves compose block images into one —
// and any run whose bytes lie inside a registered buffer is submitted as
// READ_FIXED/WRITE_FIXED against the fixed fd: the kernel skips the
// per-op get_user_pages pin and fd refcount on every submission. Runs
// outside the pool (heap fallback, oversized waves) use plain
// READV/WRITEV on the same ring; both kinds mix freely in one wave.
// If registration is unavailable (old kernel, EPERM, no
// __NR_io_uring_register) the pool still exists — leases still recycle
// warm buffers — but runs fall back to the unregistered opcodes.
//
// The probe is at construction time: if io_uring_setup fails for any
// reason the storage silently uses the fallback (io_uring_active() tells
// which path is live). EINTR and EAGAIN are retried, and a short
// completion resubmits the remaining byte range of its run (offset
// advanced past the landed bytes) so the wave stays overlapped —
// write_stats().short_resubmits counts the write-side resubmissions.
// Errors: both paths let the whole wave drain before they throw, so no
// kernel or worker still touches the caller's buffers, and then raise the
// wave's first error as std::runtime_error naming the failing block and
// byte (an unexpected EOF says "EOF"). A one-op wave is one synchronous
// pread/pwrite. Both paths are byte-equivalent to FileBlockStorage.
// Options::max_bytes_per_sqe, a test-only cap, makes ring completions
// come back short so the resubmission path runs in both directions.
//
// bandana::Store stages each request's miss blocks through read_blocks()
// and issues publish/republish/trickle waves through write_blocks() in
// admission-sized waves (queue_depth x channels blocks per wave), so the
// AdmissionController throttles *real* I/O here, not just simulated
// timing.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "nvm/block_storage.h"

namespace bandana {

struct AsyncFileStorageOptions {
  /// Submission-queue entries per io_uring (waves larger than this are
  /// chunked internally). Rounded up to a power of two by the kernel.
  unsigned ring_entries = 256;
  /// Rings in the pool: up to this many concurrent request streams submit
  /// waves in parallel (overflow streams spread round-robin across the
  /// rings).
  unsigned ring_count = 4;
  /// Threads of the pread fallback pool (0 = hardware concurrency).
  unsigned fallback_threads = 4;
  /// Skip the io_uring probe and always use the thread-pool path.
  bool force_thread_pool = false;
  /// Blocks per registered wave buffer. 0 = auto (128, the default device
  /// admission wave: queue_depth 32 x channels 4). StoreBuilder sizes it
  /// to the store's real admission wave so one lease holds one wave.
  unsigned wave_buffer_blocks = 0;
  /// Buffers in the registered pool; concurrent leases beyond this fall
  /// back to heap buffers (and plain READV/WRITEV).
  unsigned wave_buffer_count = 4;
  /// Test-only: cap every read and write SQE at this many bytes (0 = the
  /// whole remainder of its run) so completions come back short and the
  /// resubmission path genuinely runs.
  std::size_t max_bytes_per_sqe = 0;
};

class AsyncFileBlockStorage : public FileBlockStorage {
 public:
  using Options = AsyncFileStorageOptions;

  AsyncFileBlockStorage(const std::string& path, std::uint64_t num_blocks,
                        std::size_t block_bytes,
                        bool preserve_contents = false, Options options = {});
  ~AsyncFileBlockStorage() override;

  void read_blocks(std::span<const BlockReadOp> ops) const override;
  void write_blocks(std::span<const BlockWriteOp> ops) override;
  bool prefers_batched_reads() const override { return true; }
  BlockStorageWriteStats write_stats() const override;
  WaveBufferLease lease_wave_buffer(std::size_t bytes) const override;
  /// The registered wave-buffer pool.
  std::uint64_t dram_bytes() const override {
    return wave_buffers_.size() * wave_buffer_bytes_;
  }

  // sync() is inherited from FileBlockStorage (fdatasync): the wave path
  // fully drains its in-flight writes before write_blocks returns, so by
  // the time a caller reaches sync() every write already sits in the page
  // cache and fdatasync flushes exactly the right bytes.

  /// True when the io_uring path is live (false = thread-pool pread/pwrite).
  bool io_uring_active() const { return !rings_.empty(); }
  /// True when the wave-buffer pool is registered on the rings
  /// (IORING_REGISTER_BUFFERS succeeded) and FIXED ops are in use.
  bool registered_buffers_active() const { return buffers_registered_; }

 protected:
  void release_wave_buffer(unsigned index) const override;

 private:
  struct Ring;  // mmap'd SQ/CQ geometry + its submitter lock (io_uring)
  struct Run;   // ops that go out as one SQE / one pread-pwrite loop

  void init_rings(const Options& options);
  void init_wave_pool(const Options& options);
  void register_rings();
  /// Pool buffer index containing [p, p+len), or -1 when the range is not
  /// inside a registered buffer (FIXED ops need the whole range in one).
  int pool_buf_index(const void* p, std::size_t len) const;
  template <typename Op>
  std::vector<Run> runs_of(std::span<const Op> ops) const;
  /// The one wave path behind read_blocks and write_blocks.
  void transfer_wave(std::span<const Run> runs, bool write) const;
  void transfer_uring(Ring& ring, std::span<const Run> runs,
                      bool write) const;
  void transfer_threads(std::span<const Run> runs, bool write) const;

  Options options_;
  /// Registered wave-buffer pool. Declared before rings_ so the rings
  /// (whose registrations reference this memory) are torn down first.
  std::size_t wave_buffer_bytes_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> wave_buffers_;
  std::unique_ptr<std::atomic<bool>[]> wave_buffer_in_use_;
  bool buffers_registered_ = false;
  bool files_registered_ = false;
  mutable std::atomic<std::uint64_t> write_short_resubmits_{0};
  /// Ring pool: a wave grabs the first free ring (try-lock sweep) so
  /// concurrent request streams overlap their device I/O; when all rings
  /// are busy, overflow waves round-robin on this counter.
  std::vector<std::unique_ptr<Ring>> rings_;
  mutable std::atomic<std::size_t> overflow_ring_{0};
  /// Built at construction when the io_uring probe fails (or is skipped).
  /// Waves share the workers but each waits on its own completion latch,
  /// so one wave never blocks on another wave's I/O.
  std::unique_ptr<ThreadPool> fallback_pool_;
};

/// Real-file storage at `path` whose batched reads and writes overlap
/// (io_uring or thread-pool pread/pwrite). The same factory contract as
/// file_storage_factory: fresh-vs-preserve on the first invocation is
/// routed through
/// `manifest_path` (valid manifest ⇒ preserve + verify geometry; none ⇒
/// truncate); growth re-invocations resize in place, preserving published
/// blocks.
BlockStorageFactory async_file_storage_factory(
    std::string path, AsyncFileBlockStorage::Options options = {},
    std::string manifest_path = "");

}  // namespace bandana
