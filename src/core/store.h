// bandana::Store — the public entry point: an NVM-backed embedding store
// with locality-aware placement and a simulation-tuned DRAM cache.
//
// Construction is one-shot from a trained plan (see examples/quickstart.cpp):
//
//   StorePlan plan = trainer.train(traces, sizes, &pool);
//   Store store = StoreBuilder(cfg).add_plan(plan, tables).build();
//   // or, against a real file instead of heap-backed simulation storage:
//   Store ssd = StoreBuilder(cfg).file_storage("/mnt/nvm/blocks.bin")
//                   .add_plan(plan, tables).build();
//
// Serving is request-level: one MultiGetRequest fans out across many
// embedding tables (a DLRM ranking request). Block reads are deduplicated
// across the whole request, submitted together at request arrival, and
// admission-controlled to the device's queue-depth cap (paper §2.2; see
// nvm/admission.h), so oversized bursts queue at the gate instead of
// monopolizing the channels:
//
//   MultiGetRequest req;
//   req.add(user_table, user_ids).add(ads_table, ad_ids);
//   MultiGetResult res = store.multi_get(req);
//   // res.vectors[i], res.per_table[i], res.service_latency_us
//
// `multi_get_async` serves concurrent request streams on a ThreadPool.
// Each table's DRAM cache is sharded (StoreConfig::cache_shards) with one
// lock per shard, so concurrent requests proceed in parallel even inside
// a single table. Single-table callers use `lookup_batch`, a one-get
// multi_get on a closed-loop clock.
//
// Simulated IO timing runs on the event-driven per-channel NvmIoEngine
// (nvm/io_engine.h): each request's deduplicated block reads are one
// admission wave through per-channel FIFO queues. When the backend
// prefers batched reads (async_file_storage_factory — io_uring, with a
// thread-pool pread fallback), the same admission geometry throttles the
// *real* I/O: the request's miss blocks are staged through
// BlockStorage::read_blocks in waves of at most queue_depth x channels
// blocks, each wave one batched overlapped submission.
//
// Rate-limited trickle pushes share the channels with those reads, so
// their waves draw on one store-wide device-time budget
// (grant_background_writes): a wave goes only onto channels whose FIFO
// drains within one mean write service of the pump's clock — channel time
// reads left idle — with a floor of one block per limiter interval so a
// push always finishes, in the spirit of Linux's Kyber I/O scheduler,
// which throttles async writes to hold a read-latency target but never
// below one in flight.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/writer_priority_mutex.h"
#include "core/config.h"
#include "core/manifest.h"
#include "core/metrics.h"
#include "core/request.h"
#include "core/table.h"
#include "nvm/block_storage.h"
#include "nvm/endurance.h"
#include "nvm/io_engine.h"
#include "trace/trace.h"

namespace bandana {

struct StorePlan;  // trainer.h
struct TablePlan;  // trainer.h
class TrickleRepublish;
class TableInstall;

namespace detail {
struct TrickleState;  // store.cpp
struct InstallState;  // store.cpp
}  // namespace detail

/// Serving-path hook: when attached (Store::set_access_tap), the store
/// invokes the tap once per served table-get — after multi_get finishes a
/// request, and after each lookup_batch — with the id list and its
/// hit/miss split. The OnlineRetrainer's TrafficSampler implements this to
/// reservoir-sample live traffic (core/retrainer.h). Implementations must
/// be thread-safe (multi_get_async serves from many pool threads) and
/// must not call back into the store.
class AccessTap {
 public:
  virtual ~AccessTap() = default;
  virtual void on_table_get(TableId table, std::span<const VectorId> ids,
                            std::uint64_t hits, std::uint64_t misses) = 0;
};

class Store {
 public:
  /// Default backend: heap-backed MemoryBlockStorage (pure simulation).
  explicit Store(StoreConfig config, std::uint64_t seed = 42);

  /// Pluggable backend: `storage_factory` is invoked once the block count
  /// is known (use file_storage_factory(path) to run against a real file).
  Store(StoreConfig config, BlockStorageFactory storage_factory,
        std::uint64_t seed = 42);

  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  /// One-shot construction from a Trainer plan: `tables[i]` holds the
  /// values for `plan.tables[i]`. Storage is allocated exactly once.
  static Store from_plan(const StoreConfig& config, const StorePlan& plan,
                         std::span<const EmbeddingTable> tables,
                         BlockStorageFactory storage_factory = nullptr,
                         std::uint64_t seed = 42);

  /// Warm restart: reconstruct a store from the durable manifest at
  /// `manifest_path` — every table's layout, block map, access counts and
  /// policy come back exactly as of the last committed mapping swap, with
  /// NO retraining and NO block writes (the block file already holds the
  /// committed plan bytes; only the DRAM caches start cold). The config's
  /// block/vector geometry must match the manifest's. With the default
  /// null factory the store reopens the manifest's recorded block file via
  /// file_storage_factory(block_file, manifest_path) — preserve mode, with
  /// the file's size verified against the manifest geometry; pass an
  /// explicit factory to reopen through a different backend on the same
  /// bytes (e.g. async_file_storage_factory). Throws std::runtime_error
  /// when the manifest is missing/corrupt or disagrees with the config or
  /// the block file. The reopened store stays attached to the manifest:
  /// subsequent swaps keep committing durably.
  static Store open(const StoreConfig& config, const std::string& manifest_path,
                    BlockStorageFactory storage_factory = nullptr,
                    std::uint64_t seed = 42);

  /// Attach a manifest and commit it immediately: from this call on, every
  /// completed mapping swap (trickle finish — one-shot republish included —
  /// or no-op plan install) and add_table commits a new manifest version
  /// crash-atomically (BlockStorage::sync barrier, then tmp + fsync +
  /// rename pointer flip).
  /// `block_file` is recorded so Store::open can find the backing file
  /// (leave empty for storage Store::open will never reopen by path).
  /// StoreBuilder::manifest wires this up at build; call it directly when
  /// constructing a Store by hand.
  void attach_manifest(std::string manifest_path, std::string block_file = "");

  /// The attached manifest path (empty = persistence off).
  const std::string& manifest_path() const { return manifest_path_; }

  /// Completed mapping swaps since the store (lineage) was created —
  /// restored across Store::open, so a warm restart continues the count.
  std::uint64_t trickle_epoch() const;

  /// Test seam: hooks forwarded into write_manifest around the commit's
  /// rename pointer flip (crash injection at the pre/post-flip boundaries).
  void set_manifest_fault_hooks(ManifestCommitHooks hooks);

  /// Pre-size the backing storage to `total_blocks` so subsequent
  /// add_table calls need no copy-grow. StoreBuilder calls this with the
  /// exact plan-wide total.
  void reserve_blocks(std::uint64_t total_blocks);

  /// Register a table: takes its blocks from the store's free list (tail
  /// growth for the rest), writes `values` to them per `layout` as one
  /// closed-loop write wave, and sets up its DRAM cache. `access_counts`
  /// (SHP-run query counts) are required for the kThreshold policy. Returns
  /// the table handle. Prefer StoreBuilder / from_plan, which size storage
  /// once for the whole model; incremental growth streams already-written
  /// blocks through a bounded chunk buffer, never the whole old storage,
  /// and is host work the device model does not charge.
  TableId add_table(const EmbeddingTable& values, BlockLayout layout,
                    TablePolicy policy,
                    std::vector<std::uint32_t> access_counts = {});

  std::size_t num_tables() const { return tables_.size(); }

  /// Serve one whole request. Block reads are deduplicated across every id
  /// list in the request (including repeats of a table) and scheduled
  /// together across the NVM channels, capped at the device queue depth.
  /// Timing is open-loop: reads are submitted at the current clock and the
  /// clock is NOT advanced to the request's completion — pace arrivals with
  /// advance_time_us, and overload shows up as channel backlog growing
  /// request over request (paper Fig. 5). Throws std::out_of_range on a bad
  /// table or vector id, before any part of the request is served.
  MultiGetResult multi_get(const MultiGetRequest& request);

  /// multi_get with an explicit simulated arrival timestamp (negative =
  /// current clock). The cluster router stamps every node sub-request with
  /// the request's arrival at scatter time, so sub-requests served later
  /// (async gather) keep their true arrival order — the same contract
  /// multi_get_async implements internally.
  MultiGetResult multi_get(const MultiGetRequest& request, double arrival_us);

  /// Asynchronous multi_get on `pool`. The request is moved onto the task;
  /// per-shard cache locks let concurrent requests proceed in parallel,
  /// even within one table.
  std::future<MultiGetResult> multi_get_async(MultiGetRequest request,
                                              ThreadPool& pool);

  /// Serve one single-table query (batched lookups) against table `t`: a
  /// one-get multi_get whose latency lands in query_latency_us() and whose
  /// clock is closed loop (the clock moves to the query's completion).
  /// Writes the vectors contiguously into `out` (ids.size() *
  /// vector_bytes). Returns the simulated service latency in microseconds
  /// (0 when timing is disabled). Block reads within the query are
  /// deduplicated. Throws std::out_of_range on a bad table or vector id
  /// and std::invalid_argument if `out` is too small.
  double lookup_batch(TableId t, std::span<const VectorId> ids,
                      std::span<std::byte> out);

  /// Convenience single lookup.
  double lookup(TableId t, VectorId v, std::span<std::byte> out);

  /// Re-publish a table's new values after retraining (§2.2) in one shot:
  /// the unlimited-rate trickle below on the table's current mapping,
  /// pumped to completion. The values are plan-diffed against the bytes
  /// already in storage; changed blocks are written to replacement blocks
  /// taken from the store's free list (storage grows only by what the list
  /// cannot cover) as one write wave, and the mapping swaps only once that
  /// wave has landed, so the push is crash-atomic. Unchanged blocks keep
  /// their cached members warm; identical values are a complete no-op that
  /// records a zero-length write wave. The wave is enqueued on the NVM
  /// channel FIFOs at the current simulated clock WITHOUT advancing it
  /// (open loop, like multi_get): a live republish leaves write backlog on
  /// the channels and in the admission gate, so concurrent read traffic
  /// sees the paper's mixed-traffic interference (bench_fig05's
  /// read-vs-mixed sweep). Counts endurance writes, a mapping swap and a
  /// trickle epoch. Returns the simulated latency of the write wave (0
  /// when timing is off or nothing changed). Throws std::logic_error while
  /// a trickle session or migration holds the table.
  double republish(TableId t, const EmbeddingTable& values, double day = 0.0);

  /// Begin a rate-limited trickle republish of table `t` — the production
  /// §2.2 retraining push as a first-class background process. The plan
  /// (typically `Trainer::train` output on freshly sampled traffic; see
  /// core/retrainer.h) may carry a *new layout*: at begin, every block of
  /// the new plan is byte-diffed against the table's current storage,
  /// changed blocks get replacement storage blocks (popped from the
  /// store-wide free list, else freshly grown — old blocks are never
  /// overwritten — and held as a reservation that every manifest commit
  /// records until the session ends), and unchanged blocks are skipped
  /// entirely. Each `TrickleRepublish::pump()` then writes one
  /// IoKind::kWrite wave on the shared channel FIFOs, open loop,
  /// interleaved with serving reads. Its size is the smallest of the
  /// session's rate limit (`republish_cfg.blocks_per_interval` per
  /// `interval_us` of simulated time), the blocks left, and — with timing
  /// on — the store-wide background budget: every rate-limited session of
  /// the store draws on that one budget, which grants a block only on a
  /// channel that drains before the pump's clock + the mean write service
  /// (so a read queues behind about one background write per channel),
  /// or, when it granted nothing for a whole limiter interval, one block on
  /// the channel that drains first (the progress floor: under sustained
  /// read saturation a push still writes one block per interval, store-
  /// wide, and always finishes). A grant covers only the channel time idle
  /// at that pump — idle time between pumps is gone — so a push writes
  /// about one block per channel per round of pumps and its length follows
  /// the caller's pump cadence (trickle_push_budget_us assumes one round
  /// per interval). Once the last wave is written AND the simulated
  /// clock has reached that wave's completion, the table's mapping is
  /// swapped atomically (BandanaTable::swap_state): lookups are always
  /// served from a consistent mapping — entirely old-plan until the swap,
  /// entirely new-plan after — never a mix. A push that keeps the layout
  /// and policy keeps the cache warm except for members of rewritten
  /// blocks. A pump may therefore return 0 while the rate limit, the
  /// budget or the completion gate holds; callers advance the clock
  /// (serving paced requests does) and pump again. An unlimited session
  /// (blocks_per_interval == 0) ignores the budget and the gate: its first
  /// pump writes everything as one wave and swaps, like republish().
  ///
  /// The plan's cache_vectors is overridden to the table's current DRAM
  /// capacity (online retraining re-packs; it does not re-size DRAM). One
  /// session per table at a time (throws std::logic_error otherwise); the
  /// session must not outlive the store, and an abandoned (destroyed,
  /// unfinished) session returns its replacement blocks for reuse and
  /// leaves the table serving the old plan. A plan identical to what is
  /// already stored completes immediately as a no-op (zero-length wave,
  /// cache kept warm).
  ///
  /// Lifetime: `values` must stay valid until the session is done (or
  /// destroyed). Replacement-block images are NOT buffered up front — each
  /// pump() composes its wave's images lazily from `values` into a
  /// wave-sized buffer, so the session's DRAM overhead is O(wave), not
  /// O(changed blocks) (TrickleRepublish::peak_wave_bytes reports it).
  TrickleRepublish begin_trickle_republish(TableId t,
                                           const EmbeddingTable& values,
                                           TablePlan plan,
                                           const RepublishConfig& republish_cfg,
                                           double day = 0.0);

  // --- Cross-node migration primitives (the donor and target halves of a
  // cluster RebalanceSession; see cluster/rebalance.h) ---

  /// Claim table `t` for a migration read-out: the same one-session-per-
  /// table exclusivity bit as a trickle republish, so the table's mapping
  /// — and therefore every storage block the read-out streams — cannot
  /// swap mid-stream. Serving is unaffected. Throws std::logic_error when
  /// a trickle session or another migration already owns the table, or the
  /// table is retired. Pair with release_table_claim (or retire_table,
  /// which clears the claim terminally).
  void claim_table_for_migration(TableId t);
  void release_table_claim(TableId t) noexcept;

  /// The claimed table's full mapping snapshot (layout, block map, access
  /// counts, policy) — everything a receiving node needs to install an
  /// equivalent table. Requires the migration claim (it is what makes the
  /// snapshot stable across the stream that follows).
  BandanaTable::RetrainedState migration_snapshot(TableId t) const;

  /// Donor-side stream read: copy table t's local blocks
  /// [first_block, first_block + count) into `out` (count x block_bytes)
  /// via batched BlockStorage::read_blocks chunked to the admission wave
  /// size, under the shared storage lock — serving proceeds concurrently —
  /// and account the blocks as one open-loop read wave on the engine, so
  /// migration read-out contends with serving like any other I/O (latency
  /// recorded in migration_latency_us()). Requires the migration claim.
  void read_table_blocks(TableId t, std::uint32_t first_block,
                         std::uint32_t count, std::span<std::byte> out);

  /// Begin a streaming table install — the receiving half of a migration.
  /// Storage for the table is reserved up front (popping the store-wide
  /// free list before growing the file) and a manifest with a pending
  /// record naming the reserved blocks is committed BEFORE any byte
  /// lands: a crash mid-stream reopens with the blocks reclaimed and NO
  /// half-table. The returned handle streams block images in
  /// admission-sized batched write waves; finish() registers the table and
  /// atomically replaces the pending record with the table in one commit.
  /// Destroying an unfinished handle abandons the install (blocks return
  /// to the free list). `layout`/`access_counts` must match the store
  /// geometry (vectors_per_block).
  TableInstall begin_table_install(BlockLayout layout, TablePolicy policy,
                                   std::vector<std::uint32_t> access_counts);

  /// Retire table `t`: stop serving it (lookups on a retired table throw
  /// std::logic_error), return its storage blocks to the store-wide free
  /// list, free the table's DRAM (its counters stay in total_metrics()),
  /// and commit. The slot keeps its TableId (a tombstone, recorded in the
  /// manifest without a mapping): later tables do not shift. Idempotent.
  /// Throws std::logic_error while a trickle republish of `t` is in
  /// flight. A migration retires the donor copy LAST, after the target's
  /// install committed and the placement flipped, so a crash anywhere in a
  /// migration leaves at least one committed replica of every vector.
  void retire_table(TableId t);
  bool table_retired(TableId t) const;

  /// Attach (or with nullptr detach) the serving-path access tap. Safe to
  /// flip while serving is live: after the call returns, no in-flight
  /// request can still invoke the PREVIOUS tap (the store quiesces on its
  /// serving lock), so the caller may destroy it immediately
  /// (~OnlineRetrainer relies on this).
  void set_access_tap(AccessTap* tap);

  /// Metrics accessors are lock-free snapshots of per-shard counters
  /// (aggregated on read) taken under the shared storage lock, which
  /// serving holds shared too, so polling them never stalls in-flight
  /// multi_get_async requests. total_metrics() includes the final counters
  /// of retired tables. Latency accessors take the timing lock.
  TableMetrics table_metrics(TableId t) const;
  TableMetrics total_metrics() const;
  /// Staged-read-pipeline and write-path counters. The staged counters are
  /// a lock-free snapshot like the table metrics; the backend write stats
  /// (write_short_resubmits, registered_buffers_active) are sampled from
  /// the storage under a brief shared lock — it never blocks on serving
  /// reads, only on an in-flight add_table/republish begin.
  StoreMetrics store_metrics() const;
  /// Record one online retrain's phase telemetry into the store counters
  /// (retrain_* in StoreMetrics). Lock-free; called by OnlineRetrainer
  /// after each training run, so dashboards watching store_metrics() see
  /// the retrain latency budget next to the serving counters it protects.
  void note_retrain(double drain_us, double train_us, double diff_us,
                    std::uint64_t peak_training_bytes, bool budget_overrun);
  /// Per-query service latency of lookup_batch calls.
  LatencyHistogram query_latency_us() const;
  /// Per-request service latency of multi_get / multi_get_async calls.
  LatencyHistogram request_latency_us() const;
  /// Per-wave service latency of the write waves (add_table, trickle and
  /// republish pushes, installs) through the engine (empty when timing is
  /// off). Storage growth is host work and records none.
  LatencyHistogram write_latency_us() const;
  /// Per-wave service latency of migration read-out waves
  /// (read_table_blocks) through the engine (empty when timing is off).
  LatencyHistogram migration_latency_us() const;
  /// Snapshot of the endurance accounting (copy taken under the timing
  /// lock — a background trickle may be recording writes concurrently).
  EnduranceTracker endurance() const;
  const StoreConfig& config() const { return config_; }
  /// The reference dangles once the table is retired.
  const BandanaTable& table(TableId t) const;
  /// The backing storage (memory or file). Valid once a table exists or
  /// reserve_blocks ran.
  const BlockStorage& storage() const { return *storage_; }

  /// Force one epoch-reclaim pass on every table, freeing retired swap
  /// states no straggling lookup can still reference. Each completed
  /// trickle swap already runs a pass on its table; long-lived serving
  /// loops call this to drain stragglers. Returns states freed.
  std::size_t reclaim_retired_states();
  /// Retired table states still awaiting reclamation, summed over tables.
  std::size_t retired_states() const;

  /// The host memory the store holds, by category (core/metrics.h): every
  /// live table's slab, cache and shadow indexes, layout, admission data,
  /// block maps, scratch and retired states, plus the store's free list,
  /// reservations and the storage backend's own buffers. Size a node's
  /// DRAM from total(): TablePolicy::cache_vectors buys only the slab.
  /// Safe against concurrent serving.
  DramBytes dram_bytes() const;

  /// Advance the simulated clock (e.g. between request arrivals).
  void advance_time_us(double delta);
  double now_us() const;

 private:
  friend class TrickleRepublish;
  friend class TableInstall;

  /// Grow storage to `total_blocks` via the factory, streaming written
  /// blocks across in bounded chunks (file factories keep their existing
  /// contents on re-creation, so old and new storage coexist). The copy is
  /// host work, not device traffic — a file grows in place and writes
  /// nothing — so it counts no write wave, batch, endurance or engine time.
  void ensure_capacity(std::uint64_t total_blocks);
  /// Peek table t's cache for `ids` (no LRU mutation) and stage every
  /// block the lookups would miss on, up to the staging cap. Miss blocks
  /// seen past the cap are counted (stage_truncated_blocks), not staged.
  /// The peek is best-effort: a lookup whose block it left out reads the
  /// block inline.
  void stage_miss_blocks(const BandanaTable& table,
                         std::span<const VectorId> ids,
                         StagedBlockReads& staged) const;
  /// Blocks per real-I/O wave: the admission cap (queue_depth x channels),
  /// or 0 (single wave) when admission is unbounded.
  std::uint64_t real_read_wave_blocks() const;
  /// Blocks per batched write_blocks() call: the admission cap, or a
  /// bounded default chunk when admission is unbounded (write waves always
  /// bound their compose buffer, unlike the single-wave read case).
  std::uint64_t real_write_wave_blocks() const;
  /// Where a write wave's block images come from: composed, image i being
  /// local block `local[i]` of `values` under `layout`, built in one
  /// wave-sized buffer (leased from the backend's registered pool when it
  /// has one); or caller bytes, one image per target, written zero-copy.
  struct WaveImages {
    static WaveImages composed(const BlockLayout& layout,
                               const EmbeddingTable& values,
                               std::span<const BlockId> local) {
      return {&layout, &values, local, {}};
    }
    static WaveImages caller_bytes(std::span<const std::byte> bytes) {
      return {nullptr, nullptr, {}, bytes};
    }
    const BlockLayout* layout = nullptr;
    const EmbeddingTable* values = nullptr;  ///< Null for caller bytes.
    std::span<const BlockId> local;
    std::span<const std::byte> bytes;
  };
  /// Simulated timing of one engine write wave: latency from submission
  /// to its slowest completion, and that completion's clock time (both 0
  /// when timing is off or the wave is empty).
  struct WaveTiming {
    double latency_us = 0.0;
    double done_us = 0.0;
  };
  /// The one block-write path the device is charged for (add_table,
  /// trickle pumps, installs). Writes `images` to `targets` in chunks of
  /// real_write_wave_blocks(), one write_blocks() call and one
  /// write_batches bump per chunk; records targets.size() x block_bytes of
  /// endurance on `day`; then schedules the blocks as one engine wave
  /// (schedule_writes) and returns its timing. Caller holds storage_mu_
  /// (shared suffices: targets are referenced by no mapping).
  WaveTiming write_wave(std::span<const BlockId> targets,
                        const WaveImages& images, bool closed_loop,
                        double day);
  const BandanaTable& checked_table(TableId t) const;
  BandanaTable& checked_table(TableId t) {
    return const_cast<BandanaTable&>(std::as_const(*this).checked_table(t));
  }
  /// Submit `reads` block reads at `arrival_us` (or the current clock when
  /// negative) through the admission gate and record the latency to the
  /// slowest completion. `advance_clock` selects closed-loop (clock moves
  /// to completion) vs open-loop (clock stays at arrival) semantics.
  double schedule_reads(std::uint64_t reads, LatencyHistogram& recorder,
                        bool advance_clock, double arrival_us = -1.0);
  /// Submit `writes` block writes at the current clock as one admission
  /// wave of IoKind::kWrite events on the engine's channel FIFOs (no-op
  /// when timing is off). Closed loop (`advance_clock`, add_table: the
  /// caller waits for the write to land) moves the clock to the wave's
  /// completion, draining the backlog before serving resumes; open loop
  /// (pushes and installs: background traffic) leaves the clock at
  /// submission so the write backlog interferes with subsequent reads.
  WaveTiming schedule_writes(std::uint64_t writes, bool advance_clock);
  /// The store-wide background write budget: how many of `wanted` blocks
  /// a rate-limited wave may put on the channels at clock `now`. The rule
  /// is one block per channel whose FIFO drains before now + the device's
  /// mean write service (NvmIoEngine::channels_draining_before) — there is
  /// no knob. The read bound it buys: while the device drains between
  /// requests, a request's simulated latency exceeds what the same reads
  /// take with no background wave by at most one horizon plus one write
  /// service (test_write_budget checks every request of a paced 8-table
  /// push against a read-only twin, with the write service at its 99.9th
  /// percentile). The progress floor: when no channel drains within the
  /// horizon and no block was granted for a whole `interval_us` (the
  /// pumped session's limiter interval), one block is granted; the engine
  /// routes it to the channel that drains first, where it delays the reads
  /// queued behind it by one write service. So under sustained read
  /// saturation a push still writes one block per interval, store-wide,
  /// and each such block adds one write service to the read backlog.
  /// Returns `wanted` when timing is off. Caller holds budget_mu_ through
  /// the wave's engine submission.
  std::uint64_t grant_background_writes(std::uint64_t wanted, double now,
                                        double interval_us);
  /// The one serving loop (multi_get, multi_get_async, lookup_batch);
  /// the caller holds the shared storage lock. `arrival_us`: simulated
  /// arrival timestamp (negative = current clock) — multi_get_async
  /// captures it at submission so that queued requests keep their true
  /// arrival order even when serving lags. `recorder` and `advance_clock`
  /// are handed to schedule_reads.
  MultiGetResult multi_get_impl(const MultiGetRequest& request,
                                double arrival_us, LatencyHistogram& recorder,
                                bool advance_clock);

  // Trickle-session plumbing (called by TrickleRepublish on its state).
  /// begin_trickle_republish and republish: validate and claim table `t`
  /// under the unique lock, then run begin_trickle_claimed. An empty
  /// `plan` (republish) means the table's current mapping, snapshotted in
  /// the exclusive section that takes the claim, so no swap can land
  /// between snapshot and push.
  TrickleRepublish begin_trickle(TableId t, const EmbeddingTable& values,
                                 std::optional<TablePlan> plan,
                                 const RepublishConfig& republish_cfg,
                                 double day);
  /// Diff + arm phase of a trickle, entered with the table already claimed
  /// (republish_in_flight_[t] set): the O(table) byte diff runs under the
  /// shared lock, then a brief unique section allocates replacement
  /// blocks. On throw the caller releases the claim.
  TrickleRepublish begin_trickle_claimed(TableId t,
                                         const EmbeddingTable& values,
                                         TablePlan plan,
                                         const RepublishConfig& republish_cfg,
                                         double day);
  std::size_t pump_trickle(detail::TrickleState& s);
  void finish_trickle(detail::TrickleState& s);
  void abandon_trickle(detail::TrickleState& s) noexcept;

  // Streaming-install plumbing (called by TableInstall on its state).
  /// Stream `bytes` (whole block images) into the install's reserved
  /// blocks starting at local index `first`, as admission-sized batched
  /// write waves under the shared lock (the blocks are referenced by no
  /// mapping, so serving proceeds). Returns blocks written.
  std::size_t install_write(detail::InstallState& s, std::uint32_t first,
                            std::span<const std::byte> bytes);
  TableId install_finish(detail::InstallState& s);
  void install_abandon(detail::InstallState& s) noexcept;
  /// The one allocator: hand out `count` storage blocks, popped from the
  /// free list first, then grown at the tail via ensure_capacity. Serves
  /// add_table, trickle targets and installs. Caller holds the unique
  /// storage lock.
  std::vector<BlockId> allocate_blocks(std::uint64_t count);
  /// Record `blocks` as a reservation (an install's reserved blocks or a
  /// trickle session's targets) and return its id. Caller holds the unique
  /// storage lock.
  std::uint64_t add_reservation(std::vector<BlockId> blocks);
  /// Drop reservation `id`. With `recycle` (an abandon) its blocks return
  /// to the free list; without (a finish) a table mapping now owns them.
  /// Caller holds the unique storage lock, or the shared one plus
  /// manifest_mu_.
  void drop_reservation(std::uint64_t id, bool recycle);
  /// Rebuild tables_/free_list_/next_block_ from a validated manifest
  /// (Store::open). Caller: fresh store, no tables yet.
  void restore_from(const Manifest& m, const std::string& manifest_path);
  /// Serialize the store's current durable state. Caller holds storage_mu_
  /// (shared or unique) AND manifest_mu_ — the manifest lock is what keeps
  /// the multi-table snapshot consistent against concurrent shared-lock
  /// swaps (finish_trickle takes it around its swap, free-list and
  /// reservation update).
  Manifest compose_manifest() const;
  /// sync + compose + write_manifest + seq bump, under manifest_mu_ (taken
  /// here). No-op when no manifest is attached. Caller holds storage_mu_.
  /// On throw the previous durable manifest is intact; in-memory state is
  /// unchanged except that data writes may now be synced.
  void commit_manifest();
  /// commit_manifest body for callers already holding manifest_mu_.
  void commit_manifest_mlocked();
  /// Record a zero-length republish write wave (no-op diff): the cadence
  /// stays visible in write_latency_us() and the wave counters.
  void record_empty_write_wave();

  StoreConfig config_;
  BlockStorageFactory storage_factory_;
  std::unique_ptr<BlockStorage> storage_;
  /// Unique: add_table / trickle begin+abandon (storage-map mutation).
  /// Shared: serving, write waves (they write only blocks no current
  /// mapping references) and trickle finishes (which add manifest_mu_).
  /// Writer-priority, so serving cannot starve a retrain push; no path
  /// takes it shared twice.
  std::unique_ptr<WriterPriorityMutex> storage_mu_;
  /// Null for a retired (migrated-out) table: its slot stays as a
  /// tombstone so later TableIds do not shift; checked_table refuses it.
  std::vector<std::unique_ptr<BandanaTable>> tables_;
  /// Final counters of retired tables (total_metrics() adds them).
  TableMetrics retired_metrics_;
  BlockId next_block_ = 0;
  /// Per-table claim, 0 when free: a trickle session OR a migration
  /// read-out is mid-flight (one per table; both exclude mapping swaps,
  /// and only a migration claim may be retired).
  std::vector<std::uint8_t> republish_in_flight_;
  static constexpr std::uint8_t kTrickleClaim = 1;
  static constexpr std::uint8_t kMigrationClaim = 2;
  /// The one free list (LIFO): blocks below next_block_ that no mapping
  /// and no reservation holds. Mapping swaps, abandons and retires push
  /// onto it; allocate_blocks pops it before the file grows. Mutated under
  /// the unique storage lock, or under the shared one plus manifest_mu_
  /// (finish_trickle).
  std::vector<BlockId> free_list_;
  /// Blocks handed out but not yet mapped, keyed by id: each in-flight
  /// install's blocks and each trickle session's targets, from begin until
  /// finish or abandon. Every manifest commit records them as pending
  /// records, so a crash mid-stream reclaims them on reopen. Same locking
  /// as free_list_.
  std::vector<std::pair<std::uint64_t, std::vector<BlockId>>> reservations_;
  std::uint64_t next_reservation_id_ = 0;
  /// Persistence (empty path = off). manifest_mu_ serializes manifest
  /// compose/commit against the shared-lock-path mapping swaps and
  /// free-list updates (finish_trickle) — lock order: storage_mu_ (either
  /// mode) then manifest_mu_. seq/epoch are mutated under manifest_mu_ or
  /// the unique storage lock (restore/attach).
  std::string manifest_path_;
  std::string block_file_;
  std::uint64_t manifest_seq_ = 0;
  std::uint64_t trickle_epoch_ = 0;
  std::unique_ptr<std::mutex> manifest_mu_;
  ManifestCommitHooks manifest_hooks_;
  /// Serving-path access tap (behind a pointer so the Store stays movable).
  std::unique_ptr<std::atomic<AccessTap*>> tap_;

  /// Background-write grants (grant_background_writes): held from a
  /// rate-limited pump's grant through its wave's engine submission, so
  /// two sessions pumped from two threads never spend the same idle
  /// channel. Lock order: session mutex, then budget_mu_, then
  /// storage_mu_, then timing_mu_; nothing holding storage_mu_ takes it.
  std::unique_ptr<std::mutex> budget_mu_;
  /// The progress floor's clock (guarded by budget_mu_): the last grant's
  /// clock + its session's interval. A pump at or past it may write one
  /// block even when no channel drains within the horizon.
  double budget_floor_at_us_ = 0.0;
  std::unique_ptr<std::mutex> timing_mu_;  ///< Clock, engine, recorders.
  /// Event-driven per-channel device model; all of a request's reads form
  /// one admission wave, and write_wave's writes join the same channel
  /// FIFOs (exercised under timing_mu_).
  NvmIoEngine engine_;
  double now_us_ = 0.0;
  LatencyHistogram query_latency_;
  LatencyHistogram request_latency_;
  LatencyHistogram write_latency_;
  LatencyHistogram migration_latency_;
  EnduranceTracker endurance_;
  /// Every StoreMetrics counter (relaxed atomics behind a pointer so the
  /// Store stays movable).
  std::unique_ptr<AtomicStoreMetrics> staging_metrics_;
};

/// Handle on one in-flight trickle republish (Store::begin_trickle_republish).
/// pump() is thread-safe against concurrent serving and against pumps of
/// other tables' sessions; calls on one session serialize internally, so a
/// background retrainer thread and a test driver can share it. The session
/// holds a pointer to its store: it must not outlive the store, and the
/// store must not be moved while sessions exist. Destroying an unfinished
/// session abandons the push (replacement blocks return to the free list;
/// the table keeps serving the old plan).
class TrickleRepublish {
 public:
  TrickleRepublish(TrickleRepublish&& other) noexcept;
  TrickleRepublish& operator=(TrickleRepublish&& other) noexcept;
  ~TrickleRepublish();

  /// Write up to the rate limit's allowance, capped by the store-wide
  /// background budget (Store::begin_trickle_republish), at the store's
  /// current simulated clock as one open-loop IoKind::kWrite wave; once
  /// every block is written and the clock has reached the last wave's
  /// simulated completion, swap the table's mapping (an unlimited session
  /// swaps on its only wave). Returns blocks written by this call: 0 while
  /// the interval's allowance is spent, the budget has no idle channel and
  /// its floor was spent within the interval, or the completion gate holds
  /// — advance the clock and pump again — and once done.
  std::size_t pump();

  /// True once the mapping swap happened (or the plan was a no-op).
  bool done() const;

  /// True if this push installed a new mapping (cold-started the cache) —
  /// false only for a complete no-op (identical layout AND bytes).
  bool mapping_swapped() const;

  TableId table() const;
  /// Blocks the plan diff must write (changed blocks only).
  std::uint64_t total_blocks() const;
  std::uint64_t written_blocks() const;
  /// Blocks the diff proved unchanged (they keep their storage blocks).
  std::uint64_t skipped_blocks() const;
  /// Write waves issued so far.
  std::uint64_t waves() const;
  /// Largest compose buffer any pump() of this session filled, in bytes —
  /// the session's peak DRAM overhead for block images. Bounded by
  /// real_write_wave_blocks x block_bytes regardless of push size.
  std::uint64_t peak_wave_bytes() const;
  /// Simulated time at which the device completes every wave written so
  /// far (0 when timing is off): a rate-limited session swaps at the first
  /// pump that finds every block written and the clock at or past it.
  double waves_done_us() const;

 private:
  friend class Store;
  explicit TrickleRepublish(std::unique_ptr<detail::TrickleState> state);
  std::unique_ptr<detail::TrickleState> state_;
};

/// Handle on one in-flight streaming table install
/// (Store::begin_table_install) — the receiving half of a cluster shard
/// migration. The blocks were reserved (and recorded in a durable
/// pending-install manifest record) at begin; write_blocks() streams block
/// images into them; finish() registers the table and commits. Like
/// TrickleRepublish, calls on one handle serialize internally, the handle
/// must not outlive its store, and destroying it unfinished abandons the
/// install (blocks return to the free list; a durable commit drops the
/// pending record when possible — a crash before that is recovered by
/// reopen, which reclaims pending blocks).
class TableInstall {
 public:
  TableInstall(TableInstall&& other) noexcept;
  TableInstall& operator=(TableInstall&& other) noexcept;
  ~TableInstall();

  /// Stream `bytes` — a whole number of block images — into the reserved
  /// blocks at local indices [first, first + bytes.size()/block_bytes), as
  /// admission-sized batched write waves (open loop, concurrent with
  /// serving). Returns blocks written. Throws std::out_of_range past the
  /// reservation and std::logic_error after finish().
  std::size_t write_blocks(std::uint32_t first,
                           std::span<const std::byte> bytes);

  /// Register the table and commit: the table appears and the pending
  /// record disappears in ONE manifest flip — recovery sees "no table,
  /// reclaimable blocks" before it and "durable table" after it, never a
  /// half-table. Returns the new TableId.
  TableId finish();

  std::uint32_t total_blocks() const;
  std::uint64_t written_blocks() const;
  std::uint64_t waves() const;

 private:
  friend class Store;
  explicit TableInstall(std::unique_ptr<detail::InstallState> state);
  std::unique_ptr<detail::InstallState> state_;
};

}  // namespace bandana
