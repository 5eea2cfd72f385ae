// Micro-benchmarks (google-benchmark) for Bandana's hot kernels: the
// sharded insertion-position LRU, Zipf sampling, stack-distance updates,
// SHP end-to-end on a small table and on eight tables in one call (with
// and without a pool), cache replay throughput, the store's serving loop,
// the per-request recording cost (latency recorder vs fixed-size
// histogram, one metrics publish), and one admission wave through the
// async file backend.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <optional>
#include <string>

#include "core/bandana.h"

namespace bandana {
namespace {

void BM_ShardedLruAccessInsert(benchmark::State& state) {
  // Single-threaded op cost of the sharded cache (the caller's shard
  // routing, 32-id stripes as in a table's blocks); one shard is the LRU
  // simulate_cache runs. The concurrency win itself is measured
  // end-to-end by bench_fig05's shard sweep.
  const std::uint32_t universe = 100'000;
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint32_t> shard_sizes(shards, 0);
  for (VectorId v = 0; v < universe; ++v) ++shard_sizes[(v / 32) % shards];
  ShardedInsertionLru cache(universe, 16384, {0.0, 0.5}, shard_sizes);
  Rng rng(1);
  ZipfSampler zipf(universe, 0.9);
  for (auto _ : state) {
    const auto v = static_cast<VectorId>(zipf(rng));
    const std::uint32_t s = (v / 32) % shards;
    if (!cache.access(s, v)) {
      cache.insert(s, v, rng.next_bernoulli(0.5) ? 1 : 0);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedLruAccessInsert)->Arg(1)->Arg(8)->Arg(64);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(2);
  ZipfSampler zipf(10'000'000, 0.99);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += zipf(rng);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_StackDistanceAccess(benchmark::State& state) {
  const std::uint32_t n = 100'000;
  StackDistanceAnalyzer a(n);
  Rng rng(3);
  ZipfSampler zipf(n, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.access(static_cast<VectorId>(zipf(rng))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistanceAccess);

Trace make_bench_trace(std::uint32_t vectors, std::size_t queries,
                       std::uint64_t seed = 99) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = vectors;
  cfg.mean_lookups_per_query = 16;
  cfg.num_profiles = vectors / 32;
  TraceGenerator gen(cfg, seed);
  return gen.generate(queries);
}

// threads 0 runs SHP without a pool; otherwise every bucket is refined as
// a pool task. Real time, since the calling thread only waits while the
// pool works.
void BM_ShpPartition(benchmark::State& state) {
  const auto vectors = static_cast<std::uint32_t>(state.range(0));
  const Trace train = make_bench_trace(vectors, vectors / 4);
  ShpConfig sc;
  sc.vectors_per_block = 32;
  std::optional<ThreadPool> pool;
  if (state.range(1) > 0) {
    pool.emplace(static_cast<std::size_t>(state.range(1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_shp(train, vectors, sc, pool ? &*pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() * vectors);
}
BENCHMARK(BM_ShpPartition)
    ->ArgNames({"vectors", "threads"})
    ->ArgsProduct({{8192, 32768}, {0, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Eight tables through one run_shp call, as Trainer trains a store: with
// a pool, other tables' buckets fill the workers one table's narrow top
// levels leave idle.
void BM_ShpPartitionTables(benchmark::State& state) {
  constexpr std::size_t kTables = 8;
  const auto vectors = static_cast<std::uint32_t>(state.range(0));
  std::vector<Trace> traces;
  for (std::size_t t = 0; t < kTables; ++t) {
    traces.push_back(make_bench_trace(vectors, vectors / 4, 99 + t));
  }
  std::vector<ShpTable> tables;
  for (std::size_t t = 0; t < kTables; ++t) {
    ShpConfig sc;
    sc.vectors_per_block = 32;
    sc.seed = splitmix64(t);
    tables.push_back(ShpTable{&traces[t], vectors, sc});
  }
  std::optional<ThreadPool> pool;
  if (state.range(1) > 0) {
    pool.emplace(static_cast<std::size_t>(state.range(1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_shp(tables, pool ? &*pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() * kTables * vectors);
}
BENCHMARK(BM_ShpPartitionTables)
    ->ArgNames({"vectors", "threads"})
    ->ArgsProduct({{8192}, {0, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CacheReplay(benchmark::State& state) {
  const std::uint32_t vectors = 50'000;
  const Trace trace = make_bench_trace(vectors, 5000);
  const auto layout = BlockLayout::random(vectors, 32, 7);
  CachePolicyConfig pc;
  pc.capacity_vectors = 4000;
  pc.policy = PrefetchPolicy::kAll;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_cache(trace, layout, pc));
  }
  state.SetItemsProcessed(state.iterations() * trace.total_lookups());
  state.SetLabel("lookups/iter=" + std::to_string(trace.total_lookups()));
}
BENCHMARK(BM_CacheReplay)->Unit(benchmark::kMillisecond);

void BM_StoreLookupBatch(benchmark::State& state) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = 32'768;
  cfg.mean_lookups_per_query = 16;
  TraceGenerator gen(cfg, 5);
  const EmbeddingTable values = gen.make_embeddings();
  StoreConfig store_cfg;
  store_cfg.simulate_timing = true;
  Store store(store_cfg);
  TablePolicy policy;
  policy.cache_vectors = 4096;
  policy.policy = PrefetchPolicy::kAll;
  const TableId t =
      store.add_table(values, BlockLayout::random(cfg.num_vectors, 32, 3), policy);
  const Trace trace = gen.generate(4000);
  std::vector<std::byte> out(128 * 512);
  std::size_t q = 0;
  for (auto _ : state) {
    store.lookup_batch(t, trace.query(q), out);
    q = (q + 1) % trace.num_queries();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLookupBatch);

// Two tables on random layouts. Arg threshold=0 prefetches every member of
// a freshly read block (kAll); threshold=1 serves kThreshold, the policy
// every Trainer plan emits, with access counts from a separate training
// trace. fits=1 gives each table DRAM for every vector and serves each
// vector once before timing, so every timed lookup hits (cluster4-fits'
// serving path).
void BM_StoreMultiGet(benchmark::State& state) {
  const bool threshold = state.range(0) != 0;
  const bool fits = state.range(1) != 0;
  TableWorkloadConfig cfg;
  cfg.num_vectors = 32'768;
  cfg.mean_lookups_per_query = 16;
  TraceGenerator gen_a(cfg, 5), gen_b(cfg, 6);
  const EmbeddingTable values_a = gen_a.make_embeddings();
  const EmbeddingTable values_b = gen_b.make_embeddings();
  const Trace trace_a = gen_a.generate(4000);
  const Trace trace_b = gen_b.generate(4000);
  StoreConfig store_cfg;
  store_cfg.simulate_timing = true;
  TablePolicy policy;
  policy.cache_vectors = fits ? cfg.num_vectors : 4096;
  policy.policy = threshold ? PrefetchPolicy::kThreshold : PrefetchPolicy::kAll;
  policy.access_threshold = 3;
  std::vector<std::uint32_t> counts_a, counts_b;
  if (threshold) {
    counts_a = access_counts(gen_a.generate(4000), cfg.num_vectors);
    counts_b = access_counts(gen_b.generate(4000), cfg.num_vectors);
  }
  StoreBuilder builder(store_cfg);
  builder.add_table(values_a,
                    TablePlan{BlockLayout::random(cfg.num_vectors, 32, 3),
                              std::move(counts_a), policy, 0.0});
  builder.add_table(values_b,
                    TablePlan{BlockLayout::random(cfg.num_vectors, 32, 4),
                              std::move(counts_b), policy, 0.0});
  Store store = builder.build();
  if (fits) {
    std::vector<VectorId> ids(cfg.num_vectors);
    std::iota(ids.begin(), ids.end(), VectorId{0});
    for (std::size_t first = 0; first < ids.size(); first += 512) {
      const std::span<const VectorId> chunk(ids.data() + first, 512);
      MultiGetRequest req;
      req.add(0, chunk).add(1, chunk);
      store.multi_get(req);
    }
  }
  std::size_t q = 0;
  for (auto _ : state) {
    MultiGetRequest req;
    req.add(0, trace_a.query(q)).add(1, trace_b.query(q));
    benchmark::DoNotOptimize(store.multi_get(req));
    q = (q + 1) % trace_a.num_queries();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreMultiGet)
    ->ArgNames({"threshold", "fits"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1});

/// Lognormal latencies (µs) with some zeros, generated at run time.
std::vector<double> latency_samples() {
  Rng rng(11);
  std::vector<double> v(4096);
  for (double& x : v) {
    x = rng.next_bernoulli(0.02) ? 0.0 : rng.next_lognormal(3.0, 1.2);
  }
  return v;
}

// The recording cost every request pays inside Store::schedule_reads
// under the timing lock: a raw-sample recorder (cleared every 2^20
// samples to bound this bench's memory; a store's never is) vs the
// fixed-size histogram the store keeps.
void BM_LatencyRecorderAdd(benchmark::State& state) {
  const std::vector<double> samples = latency_samples();
  LatencyRecorder rec;
  std::size_t i = 0;
  for (auto _ : state) {
    rec.add(samples[i++ % samples.size()]);
    if ((i & ((1u << 20) - 1)) == 0) rec.clear();
  }
  benchmark::DoNotOptimize(rec.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyRecorderAdd);

void BM_LatencyHistogramAdd(benchmark::State& state) {
  const std::vector<double> samples = latency_samples();
  LatencyHistogram hist;
  std::size_t i = 0;
  for (auto _ : state) {
    hist.add(samples[i++ % samples.size()]);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistogramAdd);

// One table-get's metrics publish (BandanaTable::lookup_get), single
// threaded: relaxed RMWs on the non-zero fields.
void BM_AtomicTableMetricsAdd(benchmark::State& state) {
  Rng rng(12);
  std::vector<TableMetrics> deltas(256);
  for (TableMetrics& d : deltas) {
    d.lookups = 1 + rng.next_below(32);
    d.hits = rng.next_below(d.lookups + 1);
    d.nvm_block_reads = d.lookups - d.hits;
    d.nvm_bytes_read = 4096 * d.nvm_block_reads;
    d.miss_bytes = 128 * (d.lookups - d.hits);
    d.app_bytes_served = 128 * d.lookups;
  }
  AtomicTableMetrics metrics;
  std::size_t i = 0;
  for (auto _ : state) {
    metrics.add(deltas[i++ % deltas.size()]);
  }
  benchmark::DoNotOptimize(metrics.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicTableMetricsAdd);

// One admission wave (128 blocks of 4 KB: the default queue_depth 32 x
// channels 4) through AsyncFileBlockStorage on a temp file, staged in a
// leased wave buffer: the storage share of a staged read or a trickle
// write. The blocks are a fixed random sample of a 1,024-block file in
// random order, so no two ops merge into one run, as in serving. Args:
// write (0 = read_blocks, 1 = write_blocks), pool (0 = io_uring where the
// host offers it, 1 = the thread-pool fallback); the label names the path
// that ran. Page-cache I/O: this prices submission and completion, not a
// device.
void BM_AsyncWave(benchmark::State& state) {
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kWave = 128;
  constexpr std::uint64_t kFileBlocks = 1024;
  const bool write = state.range(0) != 0;
  AsyncFileStorageOptions options;
  options.force_thread_pool = state.range(1) != 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bandana_bench_wave_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    AsyncFileBlockStorage storage(path, kFileBlocks, kBlock,
                                  /*preserve_contents=*/false, options);
    std::vector<BlockId> ids(kFileBlocks);
    std::iota(ids.begin(), ids.end(), BlockId{0});
    Rng rng(13);
    for (std::size_t i = 0; i < kWave; ++i) {
      std::swap(ids[i], ids[i + rng.next_below(kFileBlocks - i)]);
    }
    WaveComposeBuffer wave(storage, kWave * kBlock);
    std::fill(wave.buf.begin(), wave.buf.end(), std::byte{0x5A});
    std::vector<BlockReadOp> reads(kWave);
    std::vector<BlockWriteOp> writes(kWave);
    for (std::size_t i = 0; i < kWave; ++i) {
      reads[i] = {ids[i], wave.buf.subspan(i * kBlock, kBlock)};
      writes[i] = {ids[i], reads[i].out};
    }
    storage.write_blocks(writes);  // reads land on written pages
    for (auto _ : state) {
      if (write) {
        storage.write_blocks(writes);
      } else {
        storage.read_blocks(reads);
      }
      benchmark::DoNotOptimize(wave.buf.data());
      benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWave * kBlock);
    state.SetLabel(storage.io_uring_active() ? "io_uring" : "thread pool");
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_AsyncWave)
    ->ArgNames({"write", "pool"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->UseRealTime();

}  // namespace
}  // namespace bandana

BENCHMARK_MAIN();
