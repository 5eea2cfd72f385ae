// Staged-read pipeline regression suite.
//
// On a batched backend the store stages every block a request's staging
// peek predicts it will miss on, and fetches them through
// BlockStorage::read_blocks in admission-sized waves. A lookup whose
// block the peek left out — an earlier lookup of the same request evicted
// it, the staging cap cut it, or a concurrent request or swap moved it —
// reads the block inline, under its shard lock, in request order. That
// order is the contract pinned here: the cache sees exactly the access
// sequence the unstaged memory backend sees, so both serve the same cache
// history and the same counters. A CountingBlockStorage shim counts how
// every byte was fetched (batched waves vs inline read_block calls) under
// a deterministic single-threaded eviction, under staging-cap truncation,
// and under a concurrent eviction-churn stress load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "core/store.h"
#include "core/store_builder.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

/// Memory-backed storage that (a) advertises batched reads so the store
/// runs the staged pipeline, and (b) counts how every byte was fetched:
/// read_blocks() batches vs inline read_block() calls. The staged
/// pipeline's contract is inline_reads == 0 once serving starts.
class CountingBlockStorage final : public BlockStorage {
 public:
  struct Counters {
    std::atomic<std::uint64_t> inline_reads{0};
    std::atomic<std::uint64_t> batched_calls{0};
    std::atomic<std::uint64_t> batched_blocks{0};
  };

  CountingBlockStorage(std::uint64_t num_blocks, std::size_t block_bytes,
                       std::shared_ptr<Counters> counters)
      : inner_(num_blocks, block_bytes), counters_(std::move(counters)) {}

  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }

  void read_block(BlockId b, std::span<std::byte> out) const override {
    counters_->inline_reads.fetch_add(1, std::memory_order_relaxed);
    inner_.read_block(b, out);
  }

  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_.write_block(b, in);
  }

  void read_blocks(std::span<const BlockReadOp> ops) const override {
    counters_->batched_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->batched_blocks.fetch_add(ops.size(),
                                        std::memory_order_relaxed);
    // Serve from the inner storage directly: this path must NOT funnel
    // through read_block, or the inline counter could not distinguish a
    // batched fetch from a fallback.
    for (const auto& op : ops) inner_.read_block(op.block, op.out);
  }

  bool prefers_batched_reads() const override { return true; }

 private:
  MemoryBlockStorage inner_;
  std::shared_ptr<Counters> counters_;
};

BlockStorageFactory counting_factory(
    std::shared_ptr<CountingBlockStorage::Counters> counters) {
  return [counters](std::uint64_t num_blocks, std::size_t block_bytes) {
    return std::make_unique<CountingBlockStorage>(num_blocks, block_bytes,
                                                  counters);
  };
}

EmbeddingTable patterned_table(std::uint32_t vectors, std::uint16_t dim) {
  EmbeddingTable values(vectors, dim);
  for (VectorId v = 0; v < vectors; ++v) {
    auto row = values.vector(v);
    for (std::uint16_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(v) + 0.25f * static_cast<float>(d);
    }
  }
  return values;
}

bool bytes_match(const EmbeddingTable& values, VectorId v,
                 std::span<const std::byte> got) {
  const auto want = values.vector_bytes_view(v);
  return std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// A one-shard kNone table of `values` under the identity layout with a
/// `cache_vectors`-entry cache, on `factory`'s storage (memory when null).
Store one_table_store(const EmbeddingTable& values,
                      std::uint64_t cache_vectors,
                      BlockStorageFactory factory = nullptr) {
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 1;
  StoreBuilder builder(cfg);
  if (factory) builder.storage(std::move(factory));
  TablePolicy policy;
  policy.cache_vectors = cache_vectors;
  policy.policy = PrefetchPolicy::kNone;
  builder.add_table(values,
                    TablePlan{BlockLayout::identity(values.num_vectors(), 32),
                              {},
                              policy,
                              0.0});
  return builder.build();
}

TEST(StagedPipeline, PeekToLookupEvictionReadsInlineInRequestOrder) {
  // Deterministic single-threaded repro: with a 1-entry cache, the staging
  // peek sees `v` cached (so its block is NOT staged), then the preceding
  // miss on `u` evicts `v` — by lookup time v's block is in neither cache
  // nor staging. The lookup reads it inline, in its place in the request,
  // so the cache ends exactly where the unstaged memory backend's does.
  auto counters = std::make_shared<CountingBlockStorage::Counters>();
  const EmbeddingTable values = patterned_table(2048, 32);
  Store store = one_table_store(values, 1, counting_factory(counters));
  Store memory = one_table_store(values, 1);

  // Warm the cache with v = 100 (block 3).
  std::vector<std::byte> out(128);
  store.lookup(0, 100, out);
  memory.lookup(0, 100, out);
  const std::uint64_t batched_before = counters->batched_calls.load();

  // u = 0 (block 0) misses and evicts v; v = 100 then misses unstaged.
  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{0, 100});
  const MultiGetResult res = store.multi_get(req);
  const MultiGetResult want = memory.multi_get(req);
  ASSERT_TRUE(bytes_match(values, 0, {res.vectors[0].data(), 128}));
  ASSERT_TRUE(bytes_match(values, 100, {res.vectors[0].data() + 128, 128}));
  EXPECT_EQ(res.vectors, want.vectors);
  EXPECT_EQ(res.block_reads, want.block_reads);

  const StoreMetrics m = store.store_metrics();
  EXPECT_EQ(m.deferred_lookups, 1u);
  EXPECT_EQ(m.retry_blocks, 1u);
  EXPECT_EQ(m.retry_waves, 1u);
  EXPECT_EQ(m.stage_truncated_blocks, 0u);
  EXPECT_EQ(counters->inline_reads.load(), 1u);
  EXPECT_EQ(counters->batched_calls.load(), batched_before + 1);  // staging

  // Same cache history as the memory backend: LRU order and counters.
  EXPECT_EQ(store.table(0).cache_contents(), memory.table(0).cache_contents());
  EXPECT_EQ(store.table(0).cache_contents(), std::vector<VectorId>{100});
  EXPECT_EQ(store.table_metrics(0), memory.table_metrics(0));
}

TEST(StagedPipeline, TruncatedStagingIsCountedAndReadInline) {
  // A request whose distinct miss blocks exceed the staging cap (4096
  // blocks) stages the first 4096; the overflow lookups read their blocks
  // inline, and the truncation is visible in the metrics.
  constexpr std::uint32_t kBlocks = 4200;  // > kMaxStagedBlocks = 4096
  constexpr std::uint32_t kVectors = kBlocks * 32;
  constexpr std::uint64_t kOverflow = kBlocks - 4096u;  // 104
  auto counters = std::make_shared<CountingBlockStorage::Counters>();
  const EmbeddingTable values = patterned_table(kVectors, 32);
  Store store = one_table_store(values, 1, counting_factory(counters));

  std::vector<VectorId> ids;
  ids.reserve(kBlocks);
  for (std::uint32_t b = 0; b < kBlocks; ++b) ids.push_back(b * 32);
  MultiGetRequest req;
  req.add(0, ids);
  const MultiGetResult res = store.multi_get(req);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(bytes_match(values, ids[i],
                            {res.vectors[0].data() + i * 128, 128}))
        << "vector " << ids[i];
  }
  EXPECT_EQ(res.block_reads, kBlocks);

  const StoreMetrics m = store.store_metrics();
  EXPECT_EQ(m.staged_blocks, 4096u);
  EXPECT_EQ(m.stage_truncated_blocks, kOverflow);
  EXPECT_EQ(m.deferred_lookups, kOverflow);
  EXPECT_EQ(m.retry_blocks, kOverflow);
  EXPECT_EQ(m.retry_waves, kOverflow);
  EXPECT_EQ(counters->inline_reads.load(), kOverflow);
  EXPECT_EQ(counters->batched_blocks.load(), 4096u);
}

TEST(StagedPipeline, ConcurrentEvictionChurnServesCorrectBytes) {
  // Many async requests against a small, eviction-heavy sharded cache, so
  // blocks are constantly evicted between one request's staging peek and
  // its lookups (and between concurrent requests). Every vector must come
  // back byte-exact, and every inline read must be one the store counted
  // as a lookup staging missed.
  auto counters = std::make_shared<CountingBlockStorage::Counters>();
  TableWorkloadConfig wl;
  wl.num_vectors = 8192;
  wl.dim = 32;
  wl.mean_lookups_per_query = 48;
  wl.num_profiles = 32;  // hot set >> cache: heavy churn
  TraceGenerator gen(wl, 97);
  const EmbeddingTable values = gen.make_embeddings();
  StoreConfig cfg;
  cfg.simulate_timing = false;
  cfg.cache_shards = 4;
  StoreBuilder builder(cfg);
  builder.storage(counting_factory(counters));
  TablePolicy policy;
  policy.cache_vectors = 64;  // tiny: almost every lookup misses + evicts
  policy.policy = PrefetchPolicy::kAll;
  builder.add_table(values,
                    TablePlan{BlockLayout::random(8192, 32, 17), {}, policy,
                              0.0});
  Store store = builder.build();

  ThreadPool pool(8);
  const Trace trace = gen.generate(600);
  std::vector<std::future<MultiGetResult>> futures;
  futures.reserve(trace.num_queries());
  for (std::size_t q = 0; q < trace.num_queries(); ++q) {
    MultiGetRequest req;
    req.add(0, trace.query(q));
    futures.push_back(store.multi_get_async(std::move(req), pool));
  }
  std::uint64_t served = 0;
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const MultiGetResult res = futures[q].get();
    const auto ids = trace.query(q);
    ASSERT_EQ(res.vectors[0].size(), ids.size() * 128);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(bytes_match(values, ids[i],
                              {res.vectors[0].data() + i * 128, 128}))
          << "request " << q << " vector " << ids[i];
    }
    served += res.lookups();
  }
  EXPECT_EQ(served, store.total_metrics().lookups);

  EXPECT_GT(counters->batched_blocks.load(), 0u);
  // Inline-read bookkeeping is exact whether or not this run's
  // interleaving left blocks unstaged.
  const StoreMetrics m = store.store_metrics();
  EXPECT_EQ(counters->inline_reads.load(), m.deferred_lookups);
  EXPECT_EQ(m.retry_blocks, m.deferred_lookups);
  EXPECT_EQ(m.retry_waves, m.deferred_lookups);
}

}  // namespace
}  // namespace bandana
