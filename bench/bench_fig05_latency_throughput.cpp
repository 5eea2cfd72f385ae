// Fig. 5: latency as a function of *application* request throughput.
//
// Part 1 (device level, the paper's figure): open-loop Poisson block reads
// for the baseline policy (each 4 KB read serves one 128 B vector -> 3.1%
// effective bandwidth) vs 100% effective bandwidth. The baseline's latency
// hockey-sticks at ~1/32 of the device bandwidth.
//
// Part 2 (store level, the production serving path): whole DLRM requests
// fan out across the 8-table model through Store::multi_get — block reads
// deduplicated per request and scheduled queue-depth-aware across the NVM
// channels. Sweeps offered load to show the same hockey stick end-to-end,
// then compares sync multi_get vs ThreadPool multi_get_async wall-clock
// serving throughput.
//
// Part 3 (shard sweep): multi_get_async against ONE table while sweeping
// cache_shards x serving threads. With one shard all requests serialize
// on the table's single cache lock; with >= threads shards they proceed
// in parallel, which is the multi-core scaling win of intra-table
// sharding (reported as async throughput and wall-clock p99).
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "bench_common.h"

using namespace bandana;
using namespace bandana::bench;

namespace {

MultiGetRequest make_request(const std::vector<TableRun>& runs,
                             std::size_t q) {
  MultiGetRequest req;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    req.add(static_cast<TableId>(i), runs[i].eval.query(q));
  }
  return req;
}

/// Forwards everything to the wrapped backend EXCEPT the batched write
/// entry point, which falls back to the base class's per-block loop (and
/// no wave-buffer pool) — the pre-write_blocks write path, as a bench
/// baseline against genuinely batched writes on the same file.
class PerBlockWriteStorage final : public BlockStorage {
 public:
  explicit PerBlockWriteStorage(std::unique_ptr<BlockStorage> inner)
      : inner_(std::move(inner)) {}
  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_->read_block(b, out);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    inner_->write_block(b, in);
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    inner_->read_blocks(ops);
  }
  bool prefers_batched_reads() const override {
    return inner_->prefers_batched_reads();
  }
  bool same_backing(const BlockStorage& other) const override {
    const auto* peer = dynamic_cast<const PerBlockWriteStorage*>(&other);
    return inner_->same_backing(peer ? *peer->inner_ : other);
  }

 private:
  std::unique_ptr<BlockStorage> inner_;
};

BlockStorageFactory per_block_write_factory(BlockStorageFactory inner) {
  return [inner = std::move(inner)](std::uint64_t num_blocks,
                                    std::size_t block_bytes) {
    return std::make_unique<PerBlockWriteStorage>(
        inner(num_blocks, block_bytes));
  };
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const NvmDeviceConfig cfg;
  const double peak_iops = cfg.peak_bandwidth_bytes_per_s() / cfg.block_bytes;

  print_header("Figure 5: latency vs application throughput",
               "paper Fig. 5 (baseline saturates ~32x earlier than 4 KB reads)",
               "open-loop Poisson arrivals, 150k IOs per point; then "
               "request-level serving via Store::multi_get");

  TablePrinter t({"policy", "app_MB/s", "device_util", "mean_us", "p99_us"});
  for (double util : {0.1, 0.3, 0.5, 0.7, 0.85, 0.95}) {
    const auto r = run_open_loop(cfg, util * peak_iops, scaled64(150'000), 11);
    for (const bool baseline : {true, false}) {
      const double useful_bytes = baseline ? 128.0 : 4096.0;
      t.add_row({baseline ? "baseline(128B useful)" : "100%-effective(4KB)",
                 TablePrinter::fmt(r.iops() * useful_bytes / 1e6, 1),
                 pct(util, 0), TablePrinter::fmt(r.latency_us.mean(), 1),
                 TablePrinter::fmt(r.latency_us.percentile(0.99), 1)});
    }
  }
  t.print();
  std::printf(
      "\nAt the same device utilization (same latency), the baseline serves "
      "32x less\napplication throughput: it saturates near %.0f MB/s while "
      "4 KB reads reach %.0f MB/s.\n\n",
      peak_iops * 128.0 / 1e6 * 0.95, peak_iops * 4096.0 / 1e6 * 0.95);

  // ---- Part 2: the production serving path. ----
  auto runs = make_runs(0.05, scaled(6'000), scaled(2'000, 200));
  std::vector<Trace> train;
  std::vector<std::uint32_t> sizes;
  std::vector<EmbeddingTable> tables;
  std::uint64_t total_vectors = 0;
  for (auto& r : runs) {
    train.push_back(r.train);
    sizes.push_back(r.cfg.num_vectors);
    tables.push_back(r.gen->make_embeddings());
    total_vectors += r.cfg.num_vectors;
  }
  StoreConfig store_cfg;
  TrainerConfig trainer_cfg;
  trainer_cfg.total_cache_vectors = total_vectors / 25;  // 4% DRAM
  Trainer trainer(store_cfg, trainer_cfg);
  ThreadPool train_pool;
  const StorePlan plan = trainer.train(train, sizes, &train_pool);

  const std::size_t num_requests = runs.front().eval.num_queries();
  std::printf("== Store serving: %zu requests x %zu tables, 4%% DRAM ==\n\n",
              num_requests, runs.size());

  // Offered-load sweep: one fresh store per point, paced by the simulated
  // clock (open-ish loop: fixed inter-arrival, closed within a request).
  TablePrinter s({"interarrival_us", "offered_kreq/s", "sim_mean_us",
                  "sim_p99_us", "blocks/req"});
  for (double interarrival_us : {200.0, 100.0, 50.0, 25.0, 10.0}) {
    Store store = StoreBuilder(store_cfg).add_plan(plan, tables).build();
    LatencyRecorder lat;
    std::uint64_t blocks = 0;
    for (std::size_t q = 0; q < num_requests; ++q) {
      store.advance_time_us(interarrival_us);
      const MultiGetResult res = store.multi_get(make_request(runs, q));
      lat.add(res.service_latency_us);
      blocks += res.block_reads;
    }
    s.add_row({TablePrinter::fmt(interarrival_us, 0),
               TablePrinter::fmt(1e3 / interarrival_us, 1),
               TablePrinter::fmt(lat.mean(), 1),
               TablePrinter::fmt(lat.percentile(0.99), 1),
               TablePrinter::fmt(static_cast<double>(blocks) /
                                     static_cast<double>(num_requests),
                                 1)});
  }
  s.print();

  // ---- Part 2b: read-only vs mixed traffic (live republish interference).
  // Republish writes are IoKind::kWrite events on the same channel FIFOs
  // and admission gate as the reads (open loop: the backlog stays on the
  // channels), so periodic retraining pushes the read tail out — the
  // paper's §2.2 write interference, reproducible end to end.
  //
  // Three modes separate the two costs of a live republish:
  //  * "side table": republish a table the requests never touch. Its
  //    cache flush affects nothing the sweep reads, so the latency gap vs
  //    read-only is PURE channel/gate write contention.
  //  * "served table": republish table 1, which the requests do read —
  //    write contention PLUS the cache flush's re-miss surge (visible as
  //    blocks/req rising). This is what a production republish costs. ----
  const std::size_t republish_every = std::max<std::size_t>(num_requests / 10,
                                                            1);
  // Republish now plan-diffs against storage (identical values are a
  // no-op), so the pushes must carry genuinely retrained values: alternate
  // between the original table and a perturbed copy — every push rewrites
  // the full diff, like a real retraining cycle.
  EmbeddingTable perturbed(tables[0].num_vectors(), tables[0].dim());
  for (VectorId v = 0; v < tables[0].num_vectors(); ++v) {
    const auto src = tables[0].vector(v);
    auto dst = perturbed.vector(v);
    for (std::size_t d = 0; d < src.size(); ++d) dst[d] = src[d] + 1000.0f;
  }
  std::printf(
      "\nread-only vs mixed traffic (one republish every %zu requests, same "
      "arrival\nprocess; republish-wave latency from Store::republish):\n\n",
      republish_every);
  enum class Mode { kReadOnly, kSideTable, kServedTable };
  TablePrinter mx({"interarrival_us", "mode", "sim_mean_us", "sim_p99_us",
                   "blocks/req", "republish_waves", "wave_p99_us"});
  TablePolicy side_policy;
  side_policy.cache_vectors = 1;
  side_policy.policy = PrefetchPolicy::kNone;
  for (double interarrival_us : {100.0, 50.0, 25.0, 10.0}) {
    for (const Mode mode :
         {Mode::kReadOnly, Mode::kSideTable, Mode::kServedTable}) {
      Store store = StoreBuilder(store_cfg).add_plan(plan, tables).build();
      // The interference table: identical geometry to table 1, never read
      // by any request — only its write waves touch the serving path.
      const TableId side = store.add_table(
          tables[0],
          BlockLayout::identity(runs[0].cfg.num_vectors, 32), side_policy);
      LatencyRecorder lat, wave_lat;
      std::uint64_t blocks = 0;
      for (std::size_t q = 0; q < num_requests; ++q) {
        store.advance_time_us(interarrival_us);
        if (mode != Mode::kReadOnly && q > 0 && q % republish_every == 0) {
          const EmbeddingTable& push =
              (q / republish_every) % 2 == 1 ? perturbed : tables[0];
          wave_lat.add(store.republish(mode == Mode::kSideTable ? side : 0,
                                       push));
        }
        const MultiGetResult res = store.multi_get(make_request(runs, q));
        lat.add(res.service_latency_us);
        blocks += res.block_reads;
      }
      mx.add_row({TablePrinter::fmt(interarrival_us, 0),
                  mode == Mode::kReadOnly     ? "read-only"
                  : mode == Mode::kSideTable  ? "mixed (side table)"
                                              : "mixed (served table)",
                  TablePrinter::fmt(lat.mean(), 1),
                  TablePrinter::fmt(lat.percentile(0.99), 1),
                  TablePrinter::fmt(static_cast<double>(blocks) /
                                        static_cast<double>(num_requests),
                                    1),
                  std::to_string(wave_lat.count()),
                  wave_lat.count() == 0
                      ? "-"
                      : TablePrinter::fmt(wave_lat.percentile(0.99), 1)});
    }
  }
  mx.print();
  std::printf(
      "\nSame seed, same arrivals. The side-table rows isolate pure write "
      "contention:\nblocks/req matches read-only, so the whole p99 gap is "
      "republish writes queued\non the shared channels and admission gate. "
      "The served-table rows add the cache\nflush a real republish implies — "
      "blocks/req rises (re-miss surge) and the tail\ngrows further. Both "
      "gaps widen as offered load approaches the knee:\nrepublishing during "
      "peak traffic costs tail latency, during troughs almost\nnothing.\n");

  // ---- Part 2c: trickle-republish rate sweep (one-shot vs rate-limited).
  // The same §2.2 retraining push, now as a first-class background
  // process: Store::begin_trickle_republish plan-diffs the new values,
  // writes replacement blocks at most blocks_per_interval per interval_us
  // and never more than the store-wide background budget grants
  // (open-loop kWrite waves on channel time idle at each pump), and swaps
  // the table's mapping once the device has completed the last wave. One-shot
  // republish IS the unlimited-rate trickle (pumped once, outside the
  // budget), so those two rows agree by construction; rates above the
  // budget converge on it, and only a rate below it trades push duration
  // further. Same seed, same arrivals across every row. ----
  {
    const double interarrival_us = 100.0;
    const std::size_t push_every = std::max<std::size_t>(num_requests / 4, 1);
    std::printf(
        "\ntrickle republish rate sweep at %.0f us interarrival (push of "
        "table 0 every %zu\nrequests, alternating perturbed values so every "
        "push rewrites the full diff):\n\n",
        interarrival_us, push_every);

    struct Row {
      const char* mode;
      double p99 = 0.0;
      double blocks_per_req = 0.0;
      std::uint64_t pushes_completed = 0;
      std::uint64_t waves = 0;
      double push_duration_us = 0.0;  // mean simulated begin->swap time
    };
    std::vector<Row> rows;
    // blocks_per_interval: 0 = unlimited (whole diff in one wave).
    struct Mode {
      const char* name;
      bool trickle;
      std::uint32_t bpi;
    };
    const Mode modes[] = {
        {"read-only", false, 0},       {"one-shot republish", false, 1},
        {"trickle unlimited", true, 0}, {"trickle 512/itv", true, 512},
        {"trickle 128/itv", true, 128}, {"trickle 32/itv", true, 32},
        {"trickle 8/itv", true, 8},     {"trickle 1/itv", true, 1},
    };
    for (const Mode& mode : modes) {
      Store store = StoreBuilder(store_cfg).add_plan(plan, tables).build();
      RepublishConfig rate;
      rate.blocks_per_interval = mode.bpi;
      rate.interval_us = interarrival_us;  // one allowance per request slot
      LatencyRecorder lat;
      std::uint64_t blocks = 0;
      std::uint64_t pushes = 0, waves = 0;
      double push_duration = 0.0, push_begin = 0.0;
      std::optional<TrickleRepublish> session;
      const bool is_republishing = mode.trickle || mode.bpi == 1;
      for (std::size_t q = 0; q < num_requests; ++q) {
        store.advance_time_us(interarrival_us);
        if (is_republishing && q > 0 && q % push_every == 0) {
          const EmbeddingTable& next =
              (q / push_every) % 2 == 1 ? perturbed : tables[0];
          if (!mode.trickle) {
            store.republish(0, next);
            ++pushes;
            ++waves;
          } else if (!session || session->done()) {
            // A push still in flight keeps going; the next one is skipped
            // (one session per table) — the cost of a tight rate limit is
            // push latency, and the sweep reports it.
            session.emplace(store.begin_trickle_republish(
                0, next, TablePlan{plan.tables[0].layout,
                                   plan.tables[0].access_counts,
                                   plan.tables[0].policy,
                                   plan.tables[0].shp_train_fanout},
                rate));
            push_begin = store.now_us();
          }
        }
        if (session && !session->done()) {
          session->pump();
          if (session->done()) {
            ++pushes;
            waves += session->waves();
            push_duration += store.now_us() - push_begin;
          }
        }
        const MultiGetResult res = store.multi_get(make_request(runs, q));
        lat.add(res.service_latency_us);
        blocks += res.block_reads;
      }
      rows.push_back({mode.name, lat.percentile(0.99),
                      static_cast<double>(blocks) /
                          static_cast<double>(num_requests),
                      pushes, waves,
                      pushes ? push_duration / static_cast<double>(pushes)
                             : 0.0});
    }
    TablePrinter tr({"mode", "sim_p99_us", "p99_inflation", "blocks/req",
                     "pushes", "waves", "mean_push_us"});
    const double base_p99 = rows.front().p99;
    for (const Row& row : rows) {
      tr.add_row({row.mode, TablePrinter::fmt(row.p99, 1),
                  TablePrinter::fmt(row.p99 / base_p99, 2),
                  TablePrinter::fmt(row.blocks_per_req, 1),
                  std::to_string(row.pushes_completed),
                  std::to_string(row.waves),
                  row.pushes_completed
                      ? TablePrinter::fmt(row.push_duration_us, 0)
                      : "-"});
    }
    tr.print();
    std::printf(
        "\nSame seed & arrivals. One-shot and trickle-unlimited dump the "
        "whole diff as one\nopen-loop wave — the violent interference "
        "spike. A rate-limited push also draws on\nthe store-wide "
        "background budget (only channels that drain within one mean "
        "write\nservice), so every rate above the budget converges on the "
        "same row, near the\nread-only p99; only a rate below the budget "
        "stretches the push further. mean_push_us\nruns from begin to the "
        "swap, which waits for the device to complete the last wave.\n");
  }

  // Sync vs async wall-clock serving throughput (unpaced: as fast as the
  // serving path goes).
  std::printf("\nsync vs async serving throughput:\n\n");
  TablePrinter w({"mode", "requests", "wall_s", "kreq/s", "hit_rate"});
  {
    Store store = StoreBuilder(store_cfg).add_plan(plan, tables).build();
    WallTimer timer;
    for (std::size_t q = 0; q < num_requests; ++q) {
      store.multi_get(make_request(runs, q));
    }
    const double secs = timer.seconds();
    w.add_row({"sync multi_get", std::to_string(num_requests),
               TablePrinter::fmt(secs, 2),
               TablePrinter::fmt(num_requests / secs / 1e3, 1),
               pct(store.total_metrics().hit_rate())});
  }
  {
    Store store = StoreBuilder(store_cfg).add_plan(plan, tables).build();
    ThreadPool serving_pool(4);
    std::vector<std::future<MultiGetResult>> inflight;
    inflight.reserve(num_requests);
    WallTimer timer;
    for (std::size_t q = 0; q < num_requests; ++q) {
      inflight.push_back(
          store.multi_get_async(make_request(runs, q), serving_pool));
    }
    for (auto& f : inflight) f.get();
    const double secs = timer.seconds();
    w.add_row({"async multi_get (pool=4)", std::to_string(num_requests),
               TablePrinter::fmt(secs, 2),
               TablePrinter::fmt(num_requests / secs / 1e3, 1),
               pct(store.total_metrics().hit_rate())});
  }
  w.print();
  std::printf(
      "\nRequests pipeline across tables and, with sharded caches, inside "
      "each table; async\ngains come from overlapping request assembly and "
      "shard-parallel serving on\nmulti-core hosts.\n");

  // ---- Part 3: intra-table cache sharding sweep (one table). ----
  std::printf(
      "\nshard sweep: multi_get_async on ONE table, cache_shards x serving "
      "threads\n(timing model off: pure serving-path scaling; in-flight "
      "window = 4 x threads)\n\n");
  TableWorkloadConfig swl;
  swl.num_vectors = scaled32(100'000, 10'000);
  swl.dim = 32;
  swl.mean_lookups_per_query = 64;
  swl.num_profiles = 1000;
  TraceGenerator sgen(swl, 77);
  const EmbeddingTable svalues = sgen.make_embeddings();
  const Trace strace = sgen.generate(scaled(2000, 100));
  const BlockLayout slayout = BlockLayout::random(swl.num_vectors, 32, 5);
  TablePolicy spolicy;
  spolicy.cache_vectors = 10'000;
  spolicy.policy = PrefetchPolicy::kPosition;
  spolicy.insertion_position = 0.5;

  TablePrinter sweep({"shards", "threads", "kreq/s", "wall_p99_us",
                      "hit_rate"});
  for (const unsigned shards : {1u, 2u, 4u, 8u, 16u}) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      StoreConfig sc;
      sc.simulate_timing = false;
      sc.cache_shards = shards;
      StoreBuilder sb(sc);
      sb.add_table(svalues, TablePlan{slayout, {}, spolicy, 0.0});
      Store store = sb.build();
      ThreadPool pool(threads);

      using Clock = std::chrono::steady_clock;
      const std::size_t window = 4 * threads;
      std::deque<std::pair<std::future<MultiGetResult>, Clock::time_point>>
          inflight;
      LatencyRecorder wall_us;
      wall_us.reserve(strace.num_queries());
      const auto settle = [&] {
        inflight.front().first.get();
        wall_us.add(std::chrono::duration<double, std::micro>(
                        Clock::now() - inflight.front().second)
                        .count());
        inflight.pop_front();
      };
      WallTimer timer;
      for (std::size_t q = 0; q < strace.num_queries(); ++q) {
        if (inflight.size() >= window) settle();
        MultiGetRequest req;
        req.add(0, strace.query(q));
        inflight.emplace_back(store.multi_get_async(std::move(req), pool),
                              Clock::now());
      }
      while (!inflight.empty()) settle();
      const double secs = timer.seconds();
      sweep.add_row(
          {std::to_string(shards), std::to_string(threads),
           TablePrinter::fmt(strace.num_queries() / secs / 1e3, 1),
           TablePrinter::fmt(wall_us.percentile(0.99), 1),
           pct(store.total_metrics().hit_rate())});
    }
  }
  sweep.print();
  std::printf(
      "\nWith cache_shards = 1 every lookup serializes on one lock; with "
      "shards >= threads\nrequests to the same table proceed in parallel. "
      "The >= 3x async-throughput win at 8\nthreads requires >= 8 hardware "
      "cores (this host has %u).\n",
      std::thread::hardware_concurrency());

  // ---- Part 4: real-file backends — admission waves of overlapped reads
  // (io_uring, or thread-pool preads) vs one synchronous pread per miss. ----
  std::printf(
      "\nreal-file serving: sync pread vs batched async reads (one table, "
      "cold cache,\nadmission waves of queue_depth x channels blocks; "
      "timing model off)\n\n");
  TablePrinter file_sweep({"backend", "wall_s", "kreq/s", "hit_rate"});
  const auto file_bench = [&](const char* name, BlockStorageFactory factory) {
    StoreConfig sc;
    sc.simulate_timing = false;
    sc.cache_shards = 1;
    StoreBuilder sb(sc);
    sb.storage(std::move(factory));
    sb.add_table(svalues, TablePlan{slayout, {}, spolicy, 0.0});
    Store store = sb.build();
    WallTimer timer;
    for (std::size_t q = 0; q < strace.num_queries(); ++q) {
      MultiGetRequest req;
      req.add(0, strace.query(q));
      store.multi_get(req);
    }
    const double secs = timer.seconds();
    file_sweep.add_row({name, TablePrinter::fmt(secs, 2),
                        TablePrinter::fmt(strace.num_queries() / secs / 1e3, 1),
                        pct(store.total_metrics().hit_rate())});
    // Staging coverage: truncated blocks and lookups staging missed (read
    // inline; retry_* count those reads) are the pipeline's coverage gaps.
    const StoreMetrics sm = store.store_metrics();
    std::printf(
        "  %s staging: staged=%llu truncated=%llu deferred=%llu "
        "retry_blocks=%llu retry_waves=%llu\n",
        name, static_cast<unsigned long long>(sm.staged_blocks),
        static_cast<unsigned long long>(sm.stage_truncated_blocks),
        static_cast<unsigned long long>(sm.deferred_lookups),
        static_cast<unsigned long long>(sm.retry_blocks),
        static_cast<unsigned long long>(sm.retry_waves));
  };
  const std::string sync_path = "/tmp/bandana_fig05_sync.bin";
  const std::string async_path = "/tmp/bandana_fig05_async.bin";
  const std::string pool_path = "/tmp/bandana_fig05_pool.bin";
  file_bench("sync pread (FileBlockStorage)", file_storage_factory(sync_path));
  {
    // Report which async path is live on this host.
    AsyncFileBlockStorage probe("/tmp/bandana_fig05_probe.bin", 1, 4096);
    std::printf("async path on this host: %s\n\n",
                probe.io_uring_active() ? "io_uring" : "thread-pool preads");
    std::remove("/tmp/bandana_fig05_probe.bin");
  }
  file_bench("async waves (auto)", async_file_storage_factory(async_path));
  AsyncFileBlockStorage::Options pool_opts;
  pool_opts.force_thread_pool = true;
  file_bench("async waves (thread-pool)",
             async_file_storage_factory(pool_path, pool_opts));
  file_sweep.print();
  std::printf(
      "\nEvery miss block of a request is staged through one batched "
      "read_blocks wave\nper queue_depth x channels blocks, so real I/O "
      "overlaps like the simulated\nchannels — and the admission gate now "
      "throttles actual device traffic.\n");
  std::remove(sync_path.c_str());
  std::remove(async_path.c_str());
  std::remove(pool_path.c_str());

  // ---- Part 5: real-file trickle republish — batched write_blocks vs the
  // per-block write path, serving reads throughout. Both modes run the
  // SAME rate limit, the same arrivals and the same diff on the same async
  // read backend; the only difference is whether each admitted wave goes
  // out as one batched write_blocks submission (composed in a leased,
  // io_uring-registered wave buffer) or as one pwrite per block. The
  // session's peak composed-image footprint (peak_wave_bytes) is the
  // bounded-memory claim of the lazy trickle: one wave, not one push. ----
  std::printf(
      "\nreal-file trickle republish: batched write_blocks vs per-block "
      "writes\n(same rate limit and arrivals; serving wall-clock p99 per "
      "request alongside;\ntiming model off)\n\n");
  {
    EmbeddingTable sperturbed(svalues.num_vectors(), svalues.dim());
    for (VectorId v = 0; v < svalues.num_vectors(); ++v) {
      const auto src = svalues.vector(v);
      auto dst = sperturbed.vector(v);
      for (std::size_t d = 0; d < src.size(); ++d) dst[d] = src[d] + 5.0f;
    }
    const std::string batched_path = "/tmp/bandana_fig05_wbatch.bin";
    const std::string perblock_path = "/tmp/bandana_fig05_wblock.bin";
    TablePrinter wp({"write path", "push_wall_ms", "republish_kblk/s",
                     "serve_p99_us", "peak_wave_KiB", "wave_bound_KiB"});
    const auto trickle_bench = [&](const char* name,
                                   BlockStorageFactory factory) {
      StoreConfig sc;
      sc.simulate_timing = false;
      sc.cache_shards = 1;
      StoreBuilder sb(sc);
      sb.storage(std::move(factory));
      sb.add_table(svalues, TablePlan{slayout, {}, spolicy, 0.0});
      Store store = sb.build();
      // Replacement region up front so growth never lands mid-measurement.
      store.reserve_blocks(2 * store.storage().num_blocks());
      RepublishConfig rate;
      rate.blocks_per_interval = 256;
      rate.interval_us = 50.0;
      TrickleRepublish session = store.begin_trickle_republish(
          0, sperturbed, TablePlan{slayout, {}, spolicy, 0.0}, rate);
      LatencyRecorder serve_us;
      double pump_s = 0.0;
      std::size_t q = 0;
      const std::size_t nq = strace.num_queries();
      while (!session.done() || q < nq) {
        store.advance_time_us(rate.interval_us);
        if (!session.done()) {
          WallTimer wt;
          session.pump();
          pump_s += wt.seconds();
        }
        MultiGetRequest req;
        req.add(0, strace.query(q % nq));
        WallTimer st;
        store.multi_get(req);
        serve_us.add(st.seconds() * 1e6);
        ++q;
      }
      const std::uint64_t written = session.written_blocks();
      const std::uint64_t wave_bound =
          std::uint64_t{sc.device.queue_depth} * sc.device.channels *
          sc.block_bytes;
      wp.add_row({name, TablePrinter::fmt(pump_s * 1e3, 1),
                  TablePrinter::fmt(pump_s > 0.0
                                        ? static_cast<double>(written) /
                                              pump_s / 1e3
                                        : 0.0,
                                    1),
                  TablePrinter::fmt(serve_us.percentile(0.99), 1),
                  TablePrinter::fmt(
                      static_cast<double>(session.peak_wave_bytes()) / 1024.0,
                      0),
                  TablePrinter::fmt(static_cast<double>(wave_bound) / 1024.0,
                                    0)});
    };
    trickle_bench("batched write_blocks",
                  async_file_storage_factory(batched_path));
    trickle_bench(
        "per-block writes",
        per_block_write_factory(async_file_storage_factory(perblock_path)));
    wp.print();
    std::printf(
        "\nSame diff, same admission schedule. The batched rows submit each "
        "admitted wave\nas one write_blocks call (one io_uring submission, "
        "WRITE_FIXED from a leased\nregistered buffer); the per-block rows "
        "pay one pwrite syscall per block. Both\nkeep peak_wave_KiB <= "
        "wave_bound_KiB: the trickle composes lazily per wave, so\npush DRAM "
        "is bounded by the admission wave no matter how large the diff "
        "is.\n");
    std::remove(batched_path.c_str());
    std::remove(perblock_path.c_str());
  }
  return 0;
}
