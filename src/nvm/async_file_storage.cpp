#include "nvm/async_file_storage.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>

// io_uring via raw syscalls. IORING_OP_READV is part of the original 5.1
// op set, so any kernel (and any UAPI header) that has io_uring at all can
// build and run this path; hosts whose headers lack the syscall numbers
// compile the thread-pool fallback only.
#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define BANDANA_HAS_IO_URING 1
#endif
#if defined(BANDANA_HAS_IO_URING) && defined(__NR_io_uring_register)
#define BANDANA_HAS_IO_URING_REGISTER 1
#endif
#endif

namespace bandana {

/// Ops whose blocks are consecutive on disk and whose bytes are
/// consecutive in memory.
struct AsyncFileBlockStorage::Run {
  BlockId block;      ///< first block of the run
  std::byte* data;    ///< its first byte in the caller's buffer
  std::size_t bytes;  ///< a whole number of blocks
};

#ifdef BANDANA_HAS_IO_URING

namespace {
int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}
int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}
#ifdef BANDANA_HAS_IO_URING_REGISTER
int sys_io_uring_register(int fd, unsigned opcode, const void* arg,
                          unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg,
                                    nr_args));
}
#endif
}  // namespace

/// One mmap'd submission/completion ring plus its submitter lock. All
/// index pointers alias kernel-shared memory; head/tail crossings use
/// acquire/release.
struct AsyncFileBlockStorage::Ring {
  std::mutex mu;  ///< one submitter per ring; the pool gives concurrency
  int fd = -1;
  void* sq_ptr = nullptr;
  std::size_t sq_len = 0;
  void* cq_ptr = nullptr;  ///< == sq_ptr under IORING_FEAT_SINGLE_MMAP
  std::size_t cq_len = 0;
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_len = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;
  unsigned entries = 0;

  ~Ring() {
    if (sqes != nullptr) ::munmap(sqes, sqes_len);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_len);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_len);
    if (fd >= 0) ::close(fd);
  }
};

void AsyncFileBlockStorage::init_rings(const Options& options) {
  for (unsigned r = 0; r < std::max(1u, options.ring_count); ++r) {
    io_uring_params params{};
    const int fd = sys_io_uring_setup(std::max(1u, options.ring_entries),
                                      &params);
    if (fd < 0) break;  // ENOSYS/EPERM/...: whatever we have so far

    auto ring = std::make_unique<Ring>();
    ring->fd = fd;
    ring->entries = params.sq_entries;
    ring->sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    ring->cq_len =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    // Pre-5.4 UAPI headers have neither io_uring_params::features nor the
    // single-mmap feature bit; two mmaps always work.
    bool single_mmap = false;
#ifdef IORING_FEAT_SINGLE_MMAP
    single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
#endif
    if (single_mmap) {
      ring->sq_len = ring->cq_len = std::max(ring->sq_len, ring->cq_len);
    }
    ring->sq_ptr = ::mmap(nullptr, ring->sq_len, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (ring->sq_ptr == MAP_FAILED) {
      ring->sq_ptr = nullptr;
      break;
    }
    if (single_mmap) {
      ring->cq_ptr = ring->sq_ptr;
    } else {
      ring->cq_ptr = ::mmap(nullptr, ring->cq_len, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (ring->cq_ptr == MAP_FAILED) {
        ring->cq_ptr = nullptr;
        break;
      }
    }
    ring->sqes_len = params.sq_entries * sizeof(io_uring_sqe);
    ring->sqes = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, ring->sqes_len, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES));
    if (ring->sqes == MAP_FAILED) {
      ring->sqes = nullptr;
      break;
    }

    auto* sq = static_cast<std::uint8_t*>(ring->sq_ptr);
    auto* cq = static_cast<std::uint8_t*>(ring->cq_ptr);
    ring->sq_head = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    ring->sq_tail = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    ring->sq_mask = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    ring->sq_array = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    ring->cq_head = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    ring->cq_tail = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    ring->cq_mask = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    ring->cqes = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    rings_.push_back(std::move(ring));
  }
}

void AsyncFileBlockStorage::register_rings() {
#ifdef BANDANA_HAS_IO_URING_REGISTER
  if (rings_.empty() || wave_buffers_.empty()) return;
  std::vector<iovec> iovs(wave_buffers_.size());
  for (std::size_t i = 0; i < wave_buffers_.size(); ++i) {
    iovs[i] = {wave_buffers_[i].get(), wave_buffer_bytes_};
  }
  const std::int32_t raw_fd = fd();
  bool bufs_ok = true;
  bool files_ok = true;
  for (auto& ring : rings_) {
    if (bufs_ok &&
        sys_io_uring_register(ring->fd, IORING_REGISTER_BUFFERS, iovs.data(),
                              static_cast<unsigned>(iovs.size())) < 0) {
      bufs_ok = false;  // RLIMIT_MEMLOCK, EPERM, ...: plain READV/WRITEV
    }
    if (files_ok && sys_io_uring_register(ring->fd, IORING_REGISTER_FILES,
                                          &raw_fd, 1) < 0) {
      files_ok = false;
    }
  }
  // All-or-nothing: a FIXED op assumes the same buf_index / file slot on
  // whichever ring the wave lands on, so one refused ring disables the
  // feature everywhere (the kernel drops per-ring registrations at ring
  // close; leftover registrations on accepting rings are harmless).
  buffers_registered_ = bufs_ok;
  files_registered_ = files_ok;
#endif
}

void AsyncFileBlockStorage::transfer_uring(Ring& ring,
                                           std::span<const Run> runs,
                                           bool write) const {
  const std::size_t bb = block_bytes();
  // Test-only short-completion injection: capping every SQE below its run
  // forces genuinely short completions through the resubmission path.
  const std::size_t cap = options_.max_bytes_per_sqe;
  // Waves larger than the ring are chunked; each chunk is one batched
  // submission and a reap loop. A partial completion resubmits the
  // REMAINING byte range of its run (offset and buffer pointer advanced
  // past the landed bytes) instead of falling back to a synchronous
  // pread/pwrite — the wave stays fully overlapped even when the kernel
  // splits an op.
  for (std::size_t base = 0; base < runs.size(); base += ring.entries) {
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(ring.entries, runs.size() - base));
    // Bytes already transferred per in-chunk run.
    std::vector<std::size_t> done_bytes(n, 0);
    // One iovec per RUN (not per SQ slot): an iovec must stay valid until
    // its op completes, and the SQ tail cycles — a resubmit landing on a
    // still-in-flight run's slot would corrupt that run's transfer. Keying
    // by run index is safe: a run is resubmitted only after its previous
    // submission completed.
    std::vector<iovec> iovecs(n);
    const auto push_sqe = [&](unsigned i) {
      const unsigned tail = std::atomic_ref<unsigned>(*ring.sq_tail)
                                .load(std::memory_order_relaxed);
      const unsigned idx = tail & ring.sq_mask;
      const Run& run = runs[base + i];
      const std::size_t done = done_bytes[i];
      const std::size_t len =
          cap != 0 ? std::min(cap, run.bytes - done) : run.bytes - done;
      std::byte* data = run.data + done;
      io_uring_sqe& sqe = ring.sqes[idx];
      std::memset(&sqe, 0, sizeof(sqe));
      // Bytes inside the registered pool (a leased wave buffer) go
      // zero-copy: the FIXED opcodes skip the per-op page pin.
      const int buf = pool_buf_index(data, len);
      if (buf >= 0) {
        sqe.opcode = write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
        sqe.addr = reinterpret_cast<std::uint64_t>(data);
        sqe.len = static_cast<unsigned>(len);
        sqe.buf_index = static_cast<std::uint16_t>(buf);
      } else {
        iovecs[i] = {data, len};
        sqe.opcode = write ? IORING_OP_WRITEV : IORING_OP_READV;
        sqe.addr = reinterpret_cast<std::uint64_t>(&iovecs[i]);
        sqe.len = 1;
      }
      if (files_registered_) {
        sqe.fd = 0;  // slot 0 of the registered file table
        sqe.flags |= IOSQE_FIXED_FILE;
      } else {
        sqe.fd = fd();
      }
      sqe.off = static_cast<std::uint64_t>(run.block) * bb + done;
      sqe.user_data = i;
      ring.sq_array[idx] = idx;
      std::atomic_ref<unsigned>(*ring.sq_tail)
          .store(tail + 1, std::memory_order_release);
    };
    for (unsigned i = 0; i < n; ++i) push_sqe(i);

    unsigned to_submit = n;
    unsigned finished = 0;
    unsigned enter_failures = 0;
    // A fatal error — per-op OR from io_uring_enter itself — is deferred
    // until every in-flight op of the chunk has completed: the kernel may
    // still be using the caller's buffers, so bailing out mid-flight would
    // dangle them. Errors name the failing BLOCK and byte even when the
    // run coalesced several: the stall point is done bytes into the run.
    std::string error;
    std::vector<unsigned> resubmit;
    while (finished < n) {
      // Wait for every op already inside the kernel rather than one CQE
      // at a time: each run keeps at most one SQE in flight, so the
      // in-kernel count before this call is n - finished - to_submit.
      // Asking for exactly that many completions drains the chunk in
      // O(1) enters instead of one wakeup per completion (the first
      // call, where everything is still unsubmitted, waits for at least
      // one so progress is guaranteed).
      const unsigned in_kernel = n - finished - to_submit;
      const int ret = sys_io_uring_enter(ring.fd, to_submit,
                                         std::max(1u, in_kernel),
                                         IORING_ENTER_GETEVENTS);
      if (ret < 0) {
        if (errno == EINTR) continue;
        if (error.empty()) {
          error =
              std::string("AsyncFileBlockStorage: io_uring_enter failed: ") +
              std::strerror(errno);
        }
        // Unsubmitted SQEs will never complete: account them as finished
        // and keep reaping the in-flight ops. If the syscall keeps
        // failing we cannot drain — give up rather than spin forever
        // (the in-flight ops may still touch soon-to-be-freed buffers,
        // but there is nothing further we can do from here).
        finished += to_submit;
        to_submit = 0;
        if (++enter_failures > 8) {
          throw std::runtime_error(error + " (in-flight drain abandoned)");
        }
      } else {
        to_submit -= static_cast<unsigned>(ret);
      }
      unsigned head = std::atomic_ref<unsigned>(*ring.cq_head)
                          .load(std::memory_order_relaxed);
      const unsigned cq_tail = std::atomic_ref<unsigned>(*ring.cq_tail)
                                   .load(std::memory_order_acquire);
      resubmit.clear();
      while (head != cq_tail) {
        const io_uring_cqe& cqe = ring.cqes[head & ring.cq_mask];
        const auto i = static_cast<unsigned>(cqe.user_data);
        const Run& run = runs[base + i];
        if (cqe.res == -EINTR || cqe.res == -EAGAIN) {
          resubmit.push_back(i);  // transient: retry the remainder
        } else if (cqe.res <= 0) {
          // A real I/O error, or 0 bytes inside a block the geometry says
          // exists (the backing file is shorter than num_blocks x
          // block_bytes): poison the wave.
          if (error.empty()) {
            const std::size_t done = done_bytes[i];
            const std::string at = "block " +
                                   std::to_string(run.block + done / bb) +
                                   " at byte " + std::to_string(done % bb);
            if (cqe.res < 0) {
              error = std::string("AsyncFileBlockStorage: ") +
                      (write ? "write of " : "read of ") + at +
                      " failed: " + std::strerror(-cqe.res);
            } else {
              error = std::string("AsyncFileBlockStorage: ") +
                      (write ? "no progress writing "
                             : "unexpected EOF reading ") +
                      at;
            }
          }
          ++finished;
        } else {
          done_bytes[i] += static_cast<std::size_t>(cqe.res);
          if (done_bytes[i] >= run.bytes) {
            ++finished;
          } else {
            // Short completion: push the remaining [done, run bytes) again.
            if (write) {
              write_short_resubmits_.fetch_add(1, std::memory_order_relaxed);
            }
            resubmit.push_back(i);
          }
        }
        ++head;
      }
      std::atomic_ref<unsigned>(*ring.cq_head)
          .store(head, std::memory_order_release);
      if (error.empty()) {
        for (const unsigned i : resubmit) {
          push_sqe(i);
          ++to_submit;
        }
      } else {
        finished += static_cast<unsigned>(resubmit.size());
      }
    }
    if (!error.empty()) throw std::runtime_error(error);
  }
}

#else  // !BANDANA_HAS_IO_URING

struct AsyncFileBlockStorage::Ring {};
void AsyncFileBlockStorage::init_rings(const Options&) {}
void AsyncFileBlockStorage::register_rings() {}
void AsyncFileBlockStorage::transfer_uring(Ring&, std::span<const Run>,
                                           bool) const {}

#endif  // BANDANA_HAS_IO_URING

AsyncFileBlockStorage::AsyncFileBlockStorage(const std::string& path,
                                             std::uint64_t num_blocks,
                                             std::size_t block_bytes,
                                             bool preserve_contents,
                                             Options options)
    : FileBlockStorage(path, num_blocks, block_bytes, preserve_contents),
      options_(options) {
  init_wave_pool(options_);
  if (!options_.force_thread_pool) init_rings(options_);
  if (rings_.empty()) {
    fallback_pool_ = std::make_unique<ThreadPool>(options_.fallback_threads);
  } else {
    register_rings();
  }
}

AsyncFileBlockStorage::~AsyncFileBlockStorage() = default;

void AsyncFileBlockStorage::init_wave_pool(const Options& options) {
  // Pool buffers exist on every path (the thread-pool fallback still
  // recycles warm wave buffers through leases); registration on top is
  // what turns them into zero-copy FIXED ops.
  const unsigned blocks =
      options.wave_buffer_blocks != 0 ? options.wave_buffer_blocks : 128u;
  const unsigned count = std::max(1u, options.wave_buffer_count);
  wave_buffer_bytes_ = static_cast<std::size_t>(blocks) * block_bytes();
  if (wave_buffer_bytes_ == 0) return;
  wave_buffers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    wave_buffers_.push_back(std::make_unique<std::byte[]>(wave_buffer_bytes_));
  }
  wave_buffer_in_use_ = std::make_unique<std::atomic<bool>[]>(count);
  for (unsigned i = 0; i < count; ++i) {
    wave_buffer_in_use_[i].store(false, std::memory_order_relaxed);
  }
}

int AsyncFileBlockStorage::pool_buf_index(const void* p,
                                          std::size_t len) const {
  if (!buffers_registered_) return -1;
  const auto* c = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < wave_buffers_.size(); ++i) {
    const std::byte* begin = wave_buffers_[i].get();
    if (c >= begin && c + len <= begin + wave_buffer_bytes_) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

BlockStorage::WaveBufferLease AsyncFileBlockStorage::lease_wave_buffer(
    std::size_t bytes) const {
  if (bytes == 0 || bytes > wave_buffer_bytes_) return {};
  for (std::size_t i = 0; i < wave_buffers_.size(); ++i) {
    bool expected = false;
    if (wave_buffer_in_use_[i].compare_exchange_strong(
            expected, true, std::memory_order_acquire,
            std::memory_order_relaxed)) {
      return make_wave_lease(static_cast<unsigned>(i),
                             {wave_buffers_[i].get(), wave_buffer_bytes_});
    }
  }
  return {};  // every buffer leased out: caller uses its own heap buffer
}

void AsyncFileBlockStorage::release_wave_buffer(unsigned index) const {
  wave_buffer_in_use_[index].store(false, std::memory_order_release);
}

BlockStorageWriteStats AsyncFileBlockStorage::write_stats() const {
  return {write_short_resubmits_.load(std::memory_order_relaxed),
          buffers_registered_};
}

namespace {
std::byte* op_bytes(const BlockReadOp& op) { return op.out.data(); }
// A write's bytes are only ever read through the non-const pointer a run
// carries.
std::byte* op_bytes(const BlockWriteOp& op) {
  return const_cast<std::byte*>(op.in.data());
}
}  // namespace

template <typename Op>
std::vector<AsyncFileBlockStorage::Run> AsyncFileBlockStorage::runs_of(
    std::span<const Op> ops) const {
  const std::size_t bb = block_bytes();
  std::vector<Run> runs;
  runs.reserve(ops.size());
  for (const Op& op : ops) {
    std::byte* const data = op_bytes(op);
    if (!runs.empty()) {
      Run& r = runs.back();
      if (op.block == r.block + r.bytes / bb && data == r.data + r.bytes) {
        r.bytes += bb;
        continue;
      }
    }
    runs.push_back(Run{op.block, data, bb});
  }
  return runs;
}

void AsyncFileBlockStorage::transfer_threads(std::span<const Run> runs,
                                             bool write) const {
  // Concurrent waves share the pool's workers, but each waits only for its
  // own chunks. The pread/pwrite loop absorbs short transfers natively. The
  // wave's first error is rethrown once every chunk has drained, the same
  // contract as the ring path.
  const std::size_t chunks = std::min(runs.size(), fallback_pool_->size());
  const std::size_t per = (runs.size() + chunks - 1) / chunks;
  ThreadPool::TaskGroup wave(*fallback_pool_);
  for (std::size_t begin = 0; begin < runs.size(); begin += per) {
    const std::size_t end = std::min(runs.size(), begin + per);
    wave.submit([this, runs, begin, end, write] {
      for (std::size_t i = begin; i < end; ++i) {
        transfer_blocks(runs[i].block, runs[i].data, runs[i].bytes, write);
      }
    });
  }
  wave.wait();
}

void AsyncFileBlockStorage::transfer_wave(std::span<const Run> runs,
                                          bool write) const {
  if (runs.empty()) return;
  // A one-op wave has nothing to overlap: one synchronous pread/pwrite.
  if (runs.size() == 1 && runs[0].bytes == block_bytes()) {
    transfer_blocks(runs[0].block, runs[0].data, runs[0].bytes, write);
    return;
  }
  if (rings_.empty()) {
    transfer_threads(runs, write);
    return;
  }
#ifdef BANDANA_HAS_IO_URING
  // Grab the first free ring so concurrent request streams overlap their
  // waves; when every ring is busy, overflow streams spread round-robin
  // across the pool instead of piling onto one ring. Reads and writes
  // share the pool, so a republish wave and a serving wave overlap on
  // different rings the way they overlap on different simulated channels.
  for (auto& ring : rings_) {
    std::unique_lock lock(ring->mu, std::try_to_lock);
    if (lock.owns_lock()) {
      transfer_uring(*ring, runs, write);
      return;
    }
  }
  Ring& ring = *rings_[overflow_ring_.fetch_add(1, std::memory_order_relaxed) %
                       rings_.size()];
  std::lock_guard lock(ring.mu);
  transfer_uring(ring, runs, write);
#endif
}

void AsyncFileBlockStorage::read_blocks(
    std::span<const BlockReadOp> ops) const {
  transfer_wave(runs_of(ops), /*write=*/false);
}

void AsyncFileBlockStorage::write_blocks(std::span<const BlockWriteOp> ops) {
  transfer_wave(runs_of(ops), /*write=*/true);
}

BlockStorageFactory async_file_storage_factory(
    std::string path, AsyncFileBlockStorage::Options options,
    std::string manifest_path) {
  // Same contract as file_storage_factory: the first invocation routes
  // fresh-vs-preserve through the manifest (and overflow-checks the
  // geometry); growth re-invocations resize in place and preserve
  // published blocks.
  return [path = std::move(path), options,
          manifest_path = std::move(manifest_path), created = false](
             std::uint64_t num_blocks, std::size_t block_bytes) mutable {
    const bool preserve =
        created || detail::preserve_for_first_open(path, manifest_path,
                                                   num_blocks, block_bytes);
    auto storage = std::make_unique<AsyncFileBlockStorage>(
        path, num_blocks, block_bytes, /*preserve_contents=*/preserve,
        options);
    created = true;
    return storage;
  };
}

}  // namespace bandana
