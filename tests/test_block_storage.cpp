#include "nvm/block_storage.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/store.h"
#include "core/store_builder.h"
#include "nvm/async_file_storage.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

void fill_pattern(std::vector<std::byte>& buf, std::uint8_t tag) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((tag + i) & 0xFF);
  }
}

template <typename Storage>
void roundtrip_test(Storage& s) {
  ASSERT_EQ(s.block_bytes(), 512u);
  ASSERT_EQ(s.num_blocks(), 8u);
  std::vector<std::byte> in(512), out(512);
  for (BlockId b = 0; b < 8; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b * 3 + 1));
    s.write_block(b, in);
  }
  for (BlockId b = 0; b < 8; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b * 3 + 1));
    s.read_block(b, out);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), 512), 0) << "block " << b;
  }
}

TEST(MemoryBlockStorage, Roundtrip) {
  MemoryBlockStorage s(8, 512);
  roundtrip_test(s);
}

TEST(MemoryBlockStorage, ZeroInitialized) {
  MemoryBlockStorage s(2, 64);
  std::vector<std::byte> out(64, std::byte{0xFF});
  s.read_block(1, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(FileBlockStorage, Roundtrip) {
  const std::string path = ::testing::TempDir() + "/bandana_blocks.bin";
  {
    FileBlockStorage s(path, 8, 512);
    roundtrip_test(s);
  }
  std::remove(path.c_str());
}

TEST(FileBlockStorage, BadPathThrows) {
  EXPECT_THROW(FileBlockStorage("/nonexistent_dir/x/y.bin", 1, 512),
               std::runtime_error);
}

TEST(StorageFactory, MemoryFactoryProducesWorkingBackend) {
  const BlockStorageFactory factory = memory_storage_factory();
  const auto storage = factory(8, 512);
  ASSERT_NE(storage, nullptr);
  roundtrip_test(*storage);
}

TEST(StorageFactory, FileFactoryProducesWorkingBackend) {
  const std::string path = ::testing::TempDir() + "/bandana_factory.bin";
  const BlockStorageFactory factory = file_storage_factory(path);
  {
    const auto storage = factory(8, 512);
    ASSERT_NE(storage, nullptr);
    roundtrip_test(*storage);
  }
  std::remove(path.c_str());
}

TEST(StorageFactory, FactoryIsReusableWithNewGeometry) {
  const BlockStorageFactory factory = memory_storage_factory();
  EXPECT_EQ(factory(4, 256)->num_blocks(), 4u);
  EXPECT_EQ(factory(16, 1024)->num_blocks(), 16u);
  EXPECT_EQ(factory(16, 1024)->block_bytes(), 1024u);
}

TEST(StorageFactory, FileFactoryRegrowthPreservesPublishedBlocks) {
  const std::string path = ::testing::TempDir() + "/bandana_regrow.bin";
  BlockStorageFactory factory = file_storage_factory(path);
  std::vector<std::byte> in(512), out(512);

  // First invocation truncates; publish a pattern.
  auto original = factory(4, 512);
  for (BlockId b = 0; b < 4; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b + 1));
    original->write_block(b, in);
  }
  // Growth invocation while the old storage is still open (the store
  // streams blocks between the two): the published bytes must survive.
  auto grown = factory(8, 512);
  ASSERT_EQ(grown->num_blocks(), 8u);
  for (BlockId b = 0; b < 4; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b + 1));
    grown->read_block(b, out);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), 512), 0) << "block " << b;
  }
  original.reset();
  grown.reset();
  std::remove(path.c_str());
}

TEST(StorageFactory, SameBackingDetectsSharedInode) {
  const std::string path = ::testing::TempDir() + "/bandana_inode.bin";
  BlockStorageFactory factory = file_storage_factory(path);
  auto a = factory(4, 512);
  auto b = factory(8, 512);  // growth reopens the same file
  EXPECT_TRUE(b->same_backing(*a));
  EXPECT_TRUE(a->same_backing(*a));

  const std::string other = ::testing::TempDir() + "/bandana_inode2.bin";
  auto c = file_storage_factory(other)(4, 512);
  EXPECT_FALSE(c->same_backing(*a));

  auto mem = memory_storage_factory()(4, 512);
  EXPECT_FALSE(mem->same_backing(*a));   // distinct backends
  EXPECT_FALSE(a->same_backing(*mem));
  EXPECT_TRUE(mem->same_backing(*mem));
  a.reset();
  b.reset();
  c.reset();
  std::remove(path.c_str());
  std::remove(other.c_str());
}

TEST(StorageFactory, FreshFileFactoryTruncatesStaleBytes) {
  const std::string path = ::testing::TempDir() + "/bandana_stale.bin";
  {
    auto stale = file_storage_factory(path)(2, 512);
    std::vector<std::byte> in(512);
    fill_pattern(in, 0xAB);
    stale->write_block(0, in);
  }
  // A *new* factory on the same path starts from a clean slate.
  auto fresh = file_storage_factory(path)(2, 512);
  std::vector<std::byte> out(512, std::byte{0xFF});
  fresh->read_block(0, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  fresh.reset();
  std::remove(path.c_str());
}

// ---- AsyncFileBlockStorage: byte-equivalent overlapped reads. ----

AsyncFileBlockStorage::Options thread_pool_options() {
  AsyncFileBlockStorage::Options options;
  options.force_thread_pool = true;
  options.fallback_threads = 3;
  return options;
}

TEST(AsyncFileBlockStorage, RoundtripBothPaths) {
  for (const bool force_threads : {false, true}) {
    const std::string path = ::testing::TempDir() + "/bandana_async.bin";
    {
      AsyncFileBlockStorage::Options options;
      options.force_thread_pool = force_threads;
      AsyncFileBlockStorage s(path, 8, 512, /*preserve_contents=*/false,
                              options);
      ASSERT_TRUE(s.prefers_batched_reads());
      if (force_threads) ASSERT_FALSE(s.io_uring_active());
      roundtrip_test(s);
    }
    std::remove(path.c_str());
  }
}

TEST(AsyncFileBlockStorage, IoUringPathServesBatchedReads) {
  const std::string path = ::testing::TempDir() + "/bandana_uring.bin";
  AsyncFileBlockStorage s(path, 16, 512);
  if (!s.io_uring_active()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "io_uring unavailable (syscall blocked or pre-5.6 "
                    "kernel); thread-pool fallback is covered elsewhere";
  }
  std::vector<std::byte> in(512);
  for (BlockId b = 0; b < 16; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(7 * b + 3));
    s.write_block(b, in);
  }
  // A shuffled batch with duplicate block ids: one ring submission.
  const std::vector<BlockId> want = {9, 1, 14, 1, 0, 15, 9, 7, 3, 11};
  std::vector<std::byte> out(want.size() * 512);
  std::vector<BlockReadOp> ops(want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ops[i] = {want[i], std::span<std::byte>(out).subspan(i * 512, 512)};
  }
  s.read_blocks(ops);
  for (std::size_t i = 0; i < want.size(); ++i) {
    fill_pattern(in, static_cast<std::uint8_t>(7 * want[i] + 3));
    EXPECT_EQ(std::memcmp(in.data(), out.data() + i * 512, 512), 0)
        << "batched op " << i << " (block " << want[i] << ")";
  }
  std::remove(path.c_str());
}

TEST(AsyncFileBlockStorage, WavesLargerThanTheRingAreChunked) {
  const std::string path = ::testing::TempDir() + "/bandana_bigwave.bin";
  AsyncFileBlockStorage::Options options;
  options.ring_entries = 4;  // force multiple chunks per wave
  AsyncFileBlockStorage s(path, 64, 256, false, options);
  std::vector<std::byte> in(256);
  for (BlockId b = 0; b < 64; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b));
    s.write_block(b, in);
  }
  std::vector<std::byte> out(64 * 256);
  std::vector<BlockReadOp> ops(64);
  for (BlockId b = 0; b < 64; ++b) {
    ops[b] = {63 - b, std::span<std::byte>(out).subspan(b * 256, 256)};
  }
  s.read_blocks(ops);
  for (BlockId b = 0; b < 64; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(63 - b));
    EXPECT_EQ(std::memcmp(in.data(), out.data() + b * 256, 256), 0);
  }
  std::remove(path.c_str());
}

/// Drives the same pinned-RNG sequence of write / batched-read / grow
/// operations against every backend and asserts byte equivalence
/// throughout, including the in-place-growth preserve contract.
TEST(AsyncFileBlockStorage, RandomOpsByteEquivalentAcrossAllBackends) {
  const std::string file_path = ::testing::TempDir() + "/bandana_equiv_f.bin";
  const std::string async_path = ::testing::TempDir() + "/bandana_equiv_a.bin";
  const std::string fallback_path =
      ::testing::TempDir() + "/bandana_equiv_t.bin";
  constexpr std::size_t kBlock = 384;

  BlockStorageFactory factories[] = {
      memory_storage_factory(), file_storage_factory(file_path),
      async_file_storage_factory(async_path),
      async_file_storage_factory(fallback_path, thread_pool_options())};
  std::uint64_t blocks = 6;
  std::vector<std::unique_ptr<BlockStorage>> backends;
  for (auto& factory : factories) backends.push_back(factory(blocks, kBlock));

  Rng rng(2024);
  std::vector<std::byte> buf(kBlock), expect(kBlock);
  for (int step = 0; step < 300; ++step) {
    const auto op = rng.next_below(10);
    if (op < 5) {  // write one random block everywhere
      const BlockId b = static_cast<BlockId>(rng.next_below(blocks));
      fill_pattern(buf, static_cast<std::uint8_t>(rng.next_below(256)));
      for (auto& backend : backends) backend->write_block(b, buf);
    } else if (op < 9) {  // batched read of random blocks, compare all
      const std::size_t n = 1 + rng.next_below(8);
      std::vector<BlockId> ids(n);
      for (auto& id : ids) id = static_cast<BlockId>(rng.next_below(blocks));
      std::vector<std::vector<std::byte>> outs(
          backends.size(), std::vector<std::byte>(n * kBlock));
      for (std::size_t k = 0; k < backends.size(); ++k) {
        std::vector<BlockReadOp> ops(n);
        for (std::size_t i = 0; i < n; ++i) {
          ops[i] = {ids[i],
                    std::span<std::byte>(outs[k]).subspan(i * kBlock, kBlock)};
        }
        backends[k]->read_blocks(ops);
      }
      for (std::size_t k = 1; k < backends.size(); ++k) {
        ASSERT_EQ(outs[k], outs[0]) << "backend " << k << " step " << step;
      }
    } else {  // grow: file factories must preserve published blocks in
      // place (same backing); distinct backings are migrated the way the
      // store migrates them, so all backends stay byte-identical.
      const std::uint64_t old_blocks = blocks;
      blocks += 1 + rng.next_below(4);
      for (std::size_t k = 0; k < backends.size(); ++k) {
        auto grown = factories[k](blocks, kBlock);
        if (!grown->same_backing(*backends[k])) {
          for (BlockId b = 0; b < old_blocks; ++b) {
            backends[k]->read_block(b, buf);
            grown->write_block(b, buf);
          }
        }
        backends[k] = std::move(grown);
      }
    }
  }
  // Final sweep: every block byte-identical across backends.
  for (BlockId b = 0; b < blocks; ++b) {
    backends[0]->read_block(b, expect);
    for (std::size_t k = 1; k < backends.size(); ++k) {
      backends[k]->read_block(b, buf);
      ASSERT_EQ(buf, expect) << "backend " << k << " block " << b;
    }
  }
  backends.clear();
  std::remove(file_path.c_str());
  std::remove(async_path.c_str());
  std::remove(fallback_path.c_str());
}

TEST(AsyncFileBlockStorage, TruncatedFileWaveThrowsOnBothPaths) {
  // A wave that reads past the end of a shrunken backing file reports the
  // failing block to the caller on both paths — the thread-pool fallback
  // must not let the error escape a pool task — and leaves the storage
  // usable for the blocks that still exist.
  for (const bool force_threads : {false, true}) {
    SCOPED_TRACE(force_threads ? "thread pool" : "default path");
    const std::string path = ::testing::TempDir() + "/bandana_truncated.bin";
    AsyncFileBlockStorage::Options options;
    options.force_thread_pool = force_threads;
    AsyncFileBlockStorage s(path, 8, 512, /*preserve_contents=*/false,
                            options);
    std::vector<std::byte> in(512);
    for (BlockId b = 0; b < 8; ++b) {
      fill_pattern(in, static_cast<std::uint8_t>(b + 1));
      s.write_block(b, in);
    }
    ASSERT_EQ(::truncate(path.c_str(), 2 * 512), 0);

    std::vector<std::byte> out(4 * 512);
    const BlockId ids[] = {0, 5, 1, 6};
    std::vector<BlockReadOp> ops;
    for (std::size_t i = 0; i < 4; ++i) {
      ops.push_back({ids[i], std::span<std::byte>(out).subspan(i * 512, 512)});
    }
    try {
      s.read_blocks(ops);
      ADD_FAILURE() << "read past EOF did not throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("EOF"), std::string::npos) << what;
      EXPECT_TRUE(what.find("block 5") != std::string::npos ||
                  what.find("block 6") != std::string::npos)
          << what;
    }

    ops = {{1, std::span<std::byte>(out).subspan(0, 512)},
           {0, std::span<std::byte>(out).subspan(512, 512)}};
    s.read_blocks(ops);
    for (std::size_t i = 0; i < 2; ++i) {
      fill_pattern(in, static_cast<std::uint8_t>(ops[i].block + 1));
      EXPECT_EQ(std::memcmp(in.data(), out.data() + i * 512, 512), 0)
          << "block " << ops[i].block;
    }
    std::remove(path.c_str());
  }
}

TEST(AsyncFileBlockStorage, ShortReadInjectionReadsExactBytes) {
  // The SQE cap applies to reads too: every 512-byte block comes back in
  // 100-byte completions and its remainder is resubmitted, into a heap
  // buffer (READV) and into a leased wave buffer (READ_FIXED when the pool
  // is registered). Blocks 4..7 are consecutive on disk and in memory, so
  // they also go out as one coalesced run.
  const std::string path = ::testing::TempDir() + "/bandana_short_read.bin";
  AsyncFileBlockStorage::Options options;
  options.max_bytes_per_sqe = 100;
  AsyncFileBlockStorage s(path, 16, 512, false, options);
  if (!s.io_uring_active()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "io_uring unavailable; the injection knob only caps "
                    "ring SQEs";
  }
  std::vector<std::byte> in(512);
  for (BlockId b = 0; b < 16; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(5 * b + 9));
    s.write_block(b, in);
  }
  const std::vector<BlockId> want = {9, 3, 14, 0, 4, 5, 6, 7, 11, 3};
  const std::size_t bytes = want.size() * 512;
  std::vector<std::byte> heap(bytes);
  auto lease = s.lease_wave_buffer(bytes);
  ASSERT_TRUE(lease);
  for (const std::span<std::byte> out :
       {std::span<std::byte>(heap), lease.bytes().first(bytes)}) {
    std::vector<BlockReadOp> ops(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ops[i] = {want[i], out.subspan(i * 512, 512)};
    }
    s.read_blocks(ops);
    for (std::size_t i = 0; i < want.size(); ++i) {
      fill_pattern(in, static_cast<std::uint8_t>(5 * want[i] + 9));
      EXPECT_EQ(std::memcmp(in.data(), out.data() + i * 512, 512), 0)
          << "op " << i << " (block " << want[i] << ")";
    }
  }
  // Read-side resubmissions are not write-path counters.
  EXPECT_EQ(s.write_stats().short_resubmits, 0u);
  std::remove(path.c_str());
}

TEST(AsyncFileBlockStorage, ConcurrentBatchedReadersAreSafe) {
  const std::string path = ::testing::TempDir() + "/bandana_async_mt.bin";
  AsyncFileBlockStorage s(path, 32, 256);
  std::vector<std::byte> in(256);
  for (BlockId b = 0; b < 32; ++b) {
    fill_pattern(in, static_cast<std::uint8_t>(b * 5 + 1));
    s.write_block(b, in);
  }
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&s, t, &failures] {
      std::vector<std::byte> want(256), out(8 * 256);
      for (int iter = 0; iter < 50; ++iter) {
        std::vector<BlockReadOp> ops(8);
        for (std::size_t i = 0; i < 8; ++i) {
          const BlockId b = static_cast<BlockId>((t * 7 + iter + i * 3) % 32);
          ops[i] = {b, std::span<std::byte>(out).subspan(i * 256, 256)};
        }
        s.read_blocks(ops);
        for (std::size_t i = 0; i < 8; ++i) {
          fill_pattern(want, static_cast<std::uint8_t>(ops[i].block * 5 + 1));
          if (std::memcmp(want.data(), out.data() + i * 256, 256) != 0) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

TEST(AsyncFileBlockStorage, SameBackingInteroperatesWithFileStorage) {
  const std::string path = ::testing::TempDir() + "/bandana_async_inode.bin";
  auto a = async_file_storage_factory(path)(4, 512);
  FileBlockStorage plain(path, 4, 512, /*preserve_contents=*/true);
  EXPECT_TRUE(a->same_backing(plain));
  EXPECT_TRUE(plain.same_backing(*a));
  a.reset();
  std::remove(path.c_str());
}

TEST(AsyncFileBlockStorage, StoreServesIdenticalBytesOnAsyncBackend) {
  // End-to-end: the store's staged read pipeline (peek misses -> batched
  // admission waves -> lookups consume staged bytes) must serve exactly
  // the bytes the memory backend serves, for both async paths.
  TableWorkloadConfig wl;
  wl.num_vectors = 4096;
  wl.dim = 32;
  TraceGenerator gen(wl, 91);
  const EmbeddingTable values = gen.make_embeddings();
  const Trace trace = gen.generate(300);
  TablePolicy policy;
  policy.cache_vectors = 256;
  policy.policy = PrefetchPolicy::kPosition;
  policy.insertion_position = 0.5;
  StoreConfig cfg;
  cfg.cache_shards = 1;
  cfg.device.channels = 2;
  cfg.device.queue_depth = 2;  // tiny waves: many read_blocks calls

  const auto serve = [&](BlockStorageFactory factory) {
    StoreBuilder builder(cfg);
    if (factory) builder.storage(std::move(factory));
    builder.add_table(values,
                      TablePlan{BlockLayout::random(4096, 32, 6), {}, policy,
                                0.0});
    Store store = builder.build();
    std::vector<std::vector<std::byte>> responses;
    std::uint64_t reads = 0;
    for (std::size_t q = 0; q < trace.num_queries(); ++q) {
      MultiGetRequest req;
      req.add(0, trace.query(q));
      const MultiGetResult res = store.multi_get(req);
      responses.push_back(res.vectors[0]);
      reads += res.block_reads;
    }
    return std::make_pair(responses, reads);
  };

  const std::string uring_path = ::testing::TempDir() + "/bandana_store_u.bin";
  const std::string pool_path = ::testing::TempDir() + "/bandana_store_p.bin";
  const auto memory = serve(nullptr);
  const auto uring = serve(async_file_storage_factory(uring_path));
  const auto pool =
      serve(async_file_storage_factory(pool_path, thread_pool_options()));
  EXPECT_EQ(uring.first, memory.first);
  EXPECT_EQ(pool.first, memory.first);
  // Both staged backends run the identical deterministic pipeline, and it
  // reads exactly the blocks the unstaged memory backend reads: a lookup
  // whose block an earlier lookup of the same request evicted (cached at
  // peek time, gone at lookup time) reads it inline at its own position,
  // so the LRU sees the same access order.
  EXPECT_EQ(uring.second, pool.second);
  EXPECT_EQ(uring.second, memory.second);
  std::remove(uring_path.c_str());
  std::remove(pool_path.c_str());
}

// ---- view_block: a block's bytes without a copy where the backend can. ----

TEST(ViewBlock, ShowsReadBlockBytesOnEveryBackend) {
  // On random blocks, view_block shows exactly the bytes read_block
  // copies. The memory view points into the storage and leaves the
  // scratch alone; the file backends fill and return the caller's scratch.
  const std::string file_path = ::testing::TempDir() + "/bandana_view_f.bin";
  const std::string uring_path = ::testing::TempDir() + "/bandana_view_u.bin";
  const std::string pool_path = ::testing::TempDir() + "/bandana_view_p.bin";
  constexpr std::size_t kBlock = 512;
  constexpr std::uint64_t kBlocks = 24;
  const std::pair<const char*, BlockStorageFactory> backends[] = {
      {"memory", memory_storage_factory()},
      {"file", file_storage_factory(file_path)},
      {"async io_uring", async_file_storage_factory(uring_path)},
      {"async thread pool",
       async_file_storage_factory(pool_path, thread_pool_options())}};

  for (const auto& [name, factory] : backends) {
    SCOPED_TRACE(name);
    const auto storage = factory(kBlocks, kBlock);
    const bool in_place =
        dynamic_cast<const MemoryBlockStorage*>(storage.get()) != nullptr;
    Rng rng(31);
    std::vector<std::byte> buf(kBlock), want(kBlock), scratch(kBlock);
    for (BlockId b = 0; b < kBlocks; ++b) {
      fill_pattern(buf, static_cast<std::uint8_t>(rng.next_below(256)));
      storage->write_block(b, buf);
    }
    for (int i = 0; i < 100; ++i) {
      const auto b = static_cast<BlockId>(rng.next_below(kBlocks));
      storage->read_block(b, want);
      std::ranges::fill(scratch, std::byte{0xA5});
      const std::span<const std::byte> view = storage->view_block(b, scratch);
      ASSERT_EQ(view.size(), kBlock);
      ASSERT_TRUE(std::ranges::equal(view, want)) << "block " << b;
      if (in_place) {
        EXPECT_NE(view.data(), scratch.data());
        EXPECT_EQ(std::ranges::count(scratch, std::byte{0xA5}),
                  static_cast<std::ptrdiff_t>(kBlock));
      } else {
        EXPECT_EQ(view.data(), scratch.data());
      }
    }
  }
  std::remove(file_path.c_str());
  std::remove(uring_path.c_str());
  std::remove(pool_path.c_str());
}

TEST(ViewBlock, MemoryViewAliasesTheStorage) {
  MemoryBlockStorage s(4, 256);
  std::vector<std::byte> a(256), b(256), scratch(256);
  fill_pattern(a, 1);
  fill_pattern(b, 200);
  s.write_block(2, a);
  const std::span<const std::byte> before = s.view_block(2, scratch);
  ASSERT_TRUE(std::ranges::equal(before, a));
  // A later write shows through a fresh view, at the same address: the
  // view is the storage, not a copy of it.
  s.write_block(2, b);
  const std::span<const std::byte> after = s.view_block(2, scratch);
  EXPECT_TRUE(std::ranges::equal(after, b));
  EXPECT_EQ(after.data(), before.data());
}

/// Memory storage seen only through read_block and write_block: the
/// default view_block must route every inline read through read_block.
class ReadCountingStorage final : public BlockStorage {
 public:
  ReadCountingStorage(std::uint64_t blocks, std::size_t bytes,
                      std::shared_ptr<std::atomic<std::uint64_t>> reads)
      : inner_(blocks, bytes), reads_(std::move(reads)) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    reads_->fetch_add(1, std::memory_order_relaxed);
    inner_.read_block(b, out);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_.write_block(b, in);
  }

 private:
  MemoryBlockStorage inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> reads_;
};

TEST(ViewBlock, ReadBlockShimSeesEveryInlineRead) {
  TableWorkloadConfig wl;
  wl.num_vectors = 2048;
  wl.dim = 32;
  TraceGenerator gen(wl, 92);
  const EmbeddingTable values = gen.make_embeddings();
  const Trace trace = gen.generate(200);
  TablePolicy policy;
  policy.cache_vectors = 128;
  policy.policy = PrefetchPolicy::kAll;
  StoreConfig cfg;
  cfg.simulate_timing = false;
  auto reads = std::make_shared<std::atomic<std::uint64_t>>(0);
  StoreBuilder builder(cfg);
  builder.storage([reads](std::uint64_t blocks, std::size_t bytes) {
    return std::make_unique<ReadCountingStorage>(blocks, bytes, reads);
  });
  builder.add_table(values, TablePlan{BlockLayout::random(2048, 32, 8), {},
                                      policy, 0.0});
  Store store = builder.build();

  const std::uint64_t before = reads->load();
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q));
    const MultiGetResult res = store.multi_get(req);
    for (std::size_t i = 0; i < trace.query(q).size(); ++i) {
      const auto want = values.vector_bytes_view(trace.query(q)[i]);
      ASSERT_EQ(std::memcmp(res.vectors[0].data() + i * 128, want.data(), 128),
                0)
          << "query " << q << " id " << i;
    }
  }
  // Unstaged backend: every miss reads its block inline, once, and the
  // shim counts it.
  const TableMetrics m = store.table_metrics(0);
  ASSERT_GT(m.lookups, m.hits);
  EXPECT_EQ(reads->load() - before, m.lookups - m.hits);
}

// ---- Batched write path: write_blocks equivalence + zero-copy leases. ----

TEST(WriteBlocks, DefaultLoopBackendsWriteExactBytes) {
  MemoryBlockStorage s(8, 256);
  EXPECT_EQ(s.write_stats().short_resubmits, 0u);
  EXPECT_FALSE(s.write_stats().registered_buffers_active);
  EXPECT_FALSE(s.lease_wave_buffer(256));

  std::vector<std::byte> src(3 * 256), out(256), want(256);
  std::vector<BlockWriteOp> ops;
  const BlockId ids[] = {5, 0, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    auto img = std::span<std::byte>(src).subspan(i * 256, 256);
    for (std::size_t j = 0; j < img.size(); ++j) {
      img[j] = static_cast<std::byte>((ids[i] * 11 + j) & 0xFF);
    }
    ops.push_back({ids[i], img});
  }
  s.write_blocks(ops);
  for (std::size_t i = 0; i < 3; ++i) {
    fill_pattern(want, 0);
    for (std::size_t j = 0; j < want.size(); ++j) {
      want[j] = static_cast<std::byte>((ids[i] * 11 + j) & 0xFF);
    }
    s.read_block(ids[i], out);
    EXPECT_EQ(out, want) << "block " << ids[i];
  }
}

/// Pinned-RNG sequence of batched writes (distinct blocks per batch, as
/// the contract requires) against every backend, checked block-for-block
/// against a shadow model and across backends.
TEST(WriteBlocks, RandomBatchesByteEquivalentAcrossAllBackends) {
  const std::string file_path = ::testing::TempDir() + "/bandana_wequiv_f.bin";
  const std::string async_path = ::testing::TempDir() + "/bandana_wequiv_a.bin";
  const std::string fallback_path =
      ::testing::TempDir() + "/bandana_wequiv_t.bin";
  constexpr std::size_t kBlock = 384;
  constexpr std::uint64_t kBlocks = 24;

  BlockStorageFactory factories[] = {
      memory_storage_factory(), file_storage_factory(file_path),
      async_file_storage_factory(async_path),
      async_file_storage_factory(fallback_path, thread_pool_options())};
  std::vector<std::unique_ptr<BlockStorage>> backends;
  for (auto& factory : factories) backends.push_back(factory(kBlocks, kBlock));

  Rng rng(777);
  std::vector<std::vector<std::byte>> model(kBlocks,
                                            std::vector<std::byte>(kBlock));
  std::vector<BlockId> ids(kBlocks);
  for (BlockId b = 0; b < kBlocks; ++b) ids[b] = b;
  std::vector<std::byte> src(kBlocks * kBlock);
  for (int step = 0; step < 200; ++step) {
    // Distinct block ids per batch (partial Fisher-Yates).
    const std::size_t n = 1 + rng.next_below(10);
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(ids[i], ids[i + rng.next_below(kBlocks - i)]);
    }
    std::vector<BlockWriteOp> ops;
    for (std::size_t i = 0; i < n; ++i) {
      auto img = std::span<std::byte>(src).subspan(i * kBlock, kBlock);
      const auto tag = static_cast<std::uint8_t>(rng.next_below(256));
      for (std::size_t j = 0; j < kBlock; ++j) {
        img[j] = static_cast<std::byte>((tag + j) & 0xFF);
      }
      std::memcpy(model[ids[i]].data(), img.data(), kBlock);
      ops.push_back({ids[i], img});
    }
    for (auto& backend : backends) backend->write_blocks(ops);
  }
  std::vector<std::byte> out(kBlock);
  for (BlockId b = 0; b < kBlocks; ++b) {
    for (std::size_t k = 0; k < backends.size(); ++k) {
      backends[k]->read_block(b, out);
      ASSERT_EQ(out, model[b]) << "backend " << k << " block " << b;
    }
  }
  backends.clear();
  std::remove(file_path.c_str());
  std::remove(async_path.c_str());
  std::remove(fallback_path.c_str());
}

TEST(WriteBlocks, WavesLargerThanTheRingAreChunked) {
  const std::string path = ::testing::TempDir() + "/bandana_bigwwave.bin";
  AsyncFileBlockStorage::Options options;
  options.ring_entries = 4;  // force multiple chunks per write wave
  AsyncFileBlockStorage s(path, 64, 256, false, options);
  std::vector<std::byte> src(64 * 256), in(256), out(256);
  std::vector<BlockWriteOp> ops(64);
  for (BlockId b = 0; b < 64; ++b) {
    auto img = std::span<std::byte>(src).subspan(b * 256, 256);
    for (std::size_t j = 0; j < img.size(); ++j) {
      img[j] = static_cast<std::byte>((b * 7 + j) & 0xFF);
    }
    ops[b] = {63 - b, std::span<std::byte>(src).subspan((63 - b) * 256, 256)};
  }
  s.write_blocks(ops);
  for (BlockId b = 0; b < 64; ++b) {
    for (std::size_t j = 0; j < in.size(); ++j) {
      in[j] = static_cast<std::byte>((b * 7 + j) & 0xFF);
    }
    s.read_block(b, out);
    EXPECT_EQ(out, in) << "block " << b;
  }
  std::remove(path.c_str());
}

TEST(WriteBlocks, ShortWriteInjectionResubmitsRemainder) {
  const std::string path = ::testing::TempDir() + "/bandana_short.bin";
  AsyncFileBlockStorage::Options options;
  options.max_bytes_per_sqe = 100;  // 512-byte blocks: >= 5 SQEs each
  AsyncFileBlockStorage s(path, 16, 512, false, options);
  if (!s.io_uring_active()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "io_uring unavailable; the injection knob only caps "
                    "ring SQEs";
  }
  std::vector<std::byte> src(16 * 512), in(512), out(512);
  std::vector<BlockWriteOp> ops(16);
  for (BlockId b = 0; b < 16; ++b) {
    auto img = std::span<std::byte>(src).subspan(b * 512, 512);
    for (std::size_t j = 0; j < img.size(); ++j) {
      img[j] = static_cast<std::byte>((b * 13 + j) & 0xFF);
    }
    ops[b] = {b, img};
  }
  s.write_blocks(ops);
  // Every block needed its remainder resubmitted at least 4 times.
  EXPECT_GE(s.write_stats().short_resubmits, 16u * 4u);
  for (BlockId b = 0; b < 16; ++b) {
    for (std::size_t j = 0; j < in.size(); ++j) {
      in[j] = static_cast<std::byte>((b * 13 + j) & 0xFF);
    }
    s.read_block(b, out);
    EXPECT_EQ(out, in) << "block " << b;
  }
  std::remove(path.c_str());
}

TEST(WriteBlocks, LeasedWaveBuffersComposeAndRecycle) {
  const std::string path = ::testing::TempDir() + "/bandana_lease.bin";
  AsyncFileBlockStorage::Options options;
  options.wave_buffer_blocks = 8;
  options.wave_buffer_count = 2;
  AsyncFileBlockStorage s(path, 16, 512, false, options);

  // The pool exists on every path (uring or fallback); registration is a
  // uring-only extra.
  EXPECT_EQ(s.write_stats().registered_buffers_active,
            s.registered_buffers_active());
  if (!s.io_uring_active()) EXPECT_FALSE(s.registered_buffers_active());

  // A wave-sized lease succeeds; an oversized request falls back (empty).
  auto lease = s.lease_wave_buffer(8 * 512);
  ASSERT_TRUE(lease);
  ASSERT_GE(lease.bytes().size(), 8u * 512u);
  EXPECT_FALSE(s.lease_wave_buffer(8 * 512 + 1));

  // Pool exhaustion: the second buffer leases, the third request is empty
  // until a lease is returned.
  auto second = s.lease_wave_buffer(512);
  ASSERT_TRUE(second);
  EXPECT_FALSE(s.lease_wave_buffer(512));
  second = BlockStorage::WaveBufferLease();  // return it
  EXPECT_TRUE(s.lease_wave_buffer(512));

  // Compose a wave inside the lease and write it: this is the zero-copy
  // path (WRITE_FIXED) when registration is live, plain writes otherwise —
  // bytes are identical either way.
  auto buf = lease.bytes().first(8 * 512);
  std::vector<BlockWriteOp> ops;
  for (BlockId b = 0; b < 8; ++b) {
    auto img = buf.subspan(b * 512, 512);
    for (std::size_t j = 0; j < img.size(); ++j) {
      img[j] = static_cast<std::byte>((b * 17 + j + 5) & 0xFF);
    }
    ops.push_back({static_cast<BlockId>(b * 2), img});
  }
  s.write_blocks(ops);
  std::vector<std::byte> in(512), out(512);
  for (BlockId b = 0; b < 8; ++b) {
    for (std::size_t j = 0; j < in.size(); ++j) {
      in[j] = static_cast<std::byte>((b * 17 + j + 5) & 0xFF);
    }
    s.read_block(b * 2, out);
    EXPECT_EQ(out, in) << "block " << b * 2;
  }
  std::remove(path.c_str());
}

TEST(WriteBlocks, ContiguousRunsCoalesceIntoOneSqe) {
  // Ops with consecutive blocks AND consecutive source bytes go out as one
  // SQE. Observable through the short-write cap: one coalesced 8-block run
  // (4096 bytes) under a 1024-byte cap takes 4 completions = 3 resubmits,
  // while 8 independent 512-byte blocks fit under the cap and take none.
  const std::string path = ::testing::TempDir() + "/bandana_coalesce.bin";
  AsyncFileBlockStorage::Options options;
  options.wave_buffer_blocks = 8;
  options.wave_buffer_count = 1;
  options.max_bytes_per_sqe = 1024;
  AsyncFileBlockStorage s(path, 16, 512, false, options);
  if (!s.io_uring_active()) {
    GTEST_SKIP() << "io_uring unavailable; cap applies to uring SQEs only";
  }

  auto lease = s.lease_wave_buffer(8 * 512);
  ASSERT_TRUE(lease);
  auto buf = lease.bytes().first(8 * 512);
  std::vector<BlockWriteOp> ops;
  for (BlockId b = 0; b < 8; ++b) {
    auto img = buf.subspan(b * 512, 512);
    for (std::size_t j = 0; j < img.size(); ++j) {
      img[j] = static_cast<std::byte>((b * 31 + j + 7) & 0xFF);
    }
    ops.push_back({static_cast<BlockId>(4 + b), img});  // blocks 4..11
  }
  s.write_blocks(ops);
  EXPECT_EQ(s.write_stats().short_resubmits, 3u);

  // Same images to scattered (odd) blocks: every op is its own run, each
  // under the cap — no further resubmits, bytes land identically.
  for (BlockId b = 0; b < 8; ++b) ops[b].block = 2 * b;
  s.write_blocks(ops);
  EXPECT_EQ(s.write_stats().short_resubmits, 3u);

  std::vector<std::byte> in(512), out(512);
  for (BlockId b = 0; b < 8; ++b) {
    for (std::size_t j = 0; j < in.size(); ++j) {
      in[j] = static_cast<std::byte>((b * 31 + j + 7) & 0xFF);
    }
    s.read_block(2 * b, out);
    EXPECT_EQ(out, in) << "scattered block " << 2 * b;
    if ((4 + b) % 2 != 0) {  // odd coalesced blocks survived the 2nd batch
      s.read_block(4 + b, out);
      EXPECT_EQ(out, in) << "coalesced block " << 4 + b;
    }
  }
  std::remove(path.c_str());
}

TEST(StoreGrowth, IncrementalAddTableStreamsOldBlocksOnFileBackend) {
  // The incremental add_table growth path: table A's published blocks must
  // still be served after the backing file is regrown for table B (the
  // store streams them through a bounded chunk buffer, not a full drain).
  const std::string path = ::testing::TempDir() + "/bandana_growth.bin";
  TableWorkloadConfig wl;
  wl.num_vectors = 2048;
  wl.dim = 32;
  TraceGenerator gen_a(wl, 31), gen_b(wl, 32);
  const EmbeddingTable values_a = gen_a.make_embeddings();
  const EmbeddingTable values_b = gen_b.make_embeddings();

  StoreConfig cfg;
  cfg.simulate_timing = false;
  Store store(cfg, file_storage_factory(path));
  TablePolicy policy;
  policy.cache_vectors = 1;  // force NVM reads: bytes come from the file
  policy.policy = PrefetchPolicy::kNone;
  const TableId a =
      store.add_table(values_a, BlockLayout::identity(2048, 32), policy);
  const TableId b =
      store.add_table(values_b, BlockLayout::random(2048, 32, 4), policy);
  ASSERT_EQ(store.storage().num_blocks(), 128u);

  std::vector<std::byte> out(128);
  for (const VectorId v : {0u, 33u, 1024u, 2047u}) {
    store.lookup(a, v, out);
    EXPECT_EQ(std::memcmp(out.data(), values_a.vector_bytes_view(v).data(),
                          128),
              0)
        << "table A vector " << v << " lost in growth";
    store.lookup(b, v, out);
    EXPECT_EQ(std::memcmp(out.data(), values_b.vector_bytes_view(v).data(),
                          128),
              0)
        << "table B vector " << v;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bandana
