#include "core/store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/store_builder.h"
#include "core/trainer.h"

namespace bandana {

namespace detail {
/// One in-flight trickle republish. begin_trickle_republish claims the
/// table under the unique storage lock, runs the whole plan diff under the
/// shared lock (the claim freezes the old mapping) and allocates
/// replacement blocks; pump() calls then drive the waves under `mu`.
/// Changed-block images are NOT buffered here: each pump composes its
/// wave's images lazily from `values` into a wave-sized buffer, so the
/// session's DRAM overhead is O(wave) while the push may be O(table). The
/// caller's values must therefore stay valid until the session is done or
/// destroyed (the plan's layout is owned by `next`).
struct TrickleState {
  TrickleState(Store* st, TableId tid, const RepublishConfig& cfg, double d)
      : store(st), table(tid), limiter(cfg), day(d) {}

  Store* store = nullptr;
  TableId table = 0;
  TrickleRateLimiter limiter;
  double day = 0.0;
  /// The mapping to install at completion (engaged unless the push was a
  /// no-op resolved at begin). Its layout also drives the lazy per-wave
  /// composition until then.
  std::optional<BandanaTable::RetrainedState> next;
  const EmbeddingTable* values = nullptr;  ///< caller-owned retrained values
  std::vector<BlockId> changed;    ///< changed local block ids, diff order
  std::vector<BlockId> targets;    ///< their replacement storage blocks
  std::uint64_t reservation = 0;   ///< Key into Store::reservations_.
  std::uint64_t changed_vectors = 0;
  std::uint64_t skipped = 0;
  std::uint64_t written = 0;
  std::uint64_t waves = 0;
  std::uint64_t peak_wave_bytes = 0;  ///< largest compose buffer filled
  double last_wave_us = 0.0;  ///< simulated latency of the latest wave
  /// When the device completes every wave written so far (simulated). A
  /// rate-limited session swaps only once the clock reaches it.
  double waves_done_us = 0.0;
  bool swapped = false;
  bool installed_mapping = false;  ///< The push replaced the table's plan.
  mutable std::mutex mu;  ///< serializes pump/done/stat reads
};

/// One in-flight streaming table install (Store::begin_table_install) —
/// the receiving half of a cluster shard migration. The reserved blocks
/// were committed as a pending-install manifest record at begin; no table
/// references them until install_finish registers the BandanaTable and
/// drops the record in one commit.
struct InstallState {
  Store* store = nullptr;
  std::uint64_t id = 0;  ///< Key into Store::reservations_.
  TablePolicy policy;
  std::optional<BlockLayout> layout;  ///< Moved into the table at finish.
  std::vector<std::uint32_t> access_counts;
  std::vector<BlockId> blocks;  ///< Reserved storage blocks, local order.
  std::uint64_t written = 0;    ///< Blocks streamed so far.
  std::uint64_t waves = 0;      ///< write_blocks() calls so far.
  bool finished = false;
  mutable std::mutex mu;  ///< serializes write/finish/stat reads
};
}  // namespace detail

namespace {
/// Chunk size for streaming published blocks into grown storage: 16 MB of
/// 4 KB blocks, so growth never buffers the whole old storage in memory.
constexpr std::uint64_t kGrowthChunkBlocks = 4096;

/// Cap on blocks staged per batched-read fetch (16 MB of 4 KB blocks).
/// The admission waves bound in-flight device I/O; this bounds the
/// staging buffer itself. Misses beyond the cap are counted
/// (StoreMetrics::stage_truncated_blocks) and their lookups read their
/// blocks inline, in request order.
constexpr std::size_t kMaxStagedBlocks = 4096;
}  // namespace

Store::Store(StoreConfig config, std::uint64_t seed)
    : Store(config, memory_storage_factory(), seed) {}

Store::Store(StoreConfig config, BlockStorageFactory storage_factory,
             std::uint64_t seed)
    : config_(config),
      storage_factory_(std::move(storage_factory)),
      storage_mu_(std::make_unique<WriterPriorityMutex>()),
      manifest_mu_(std::make_unique<std::mutex>()),
      tap_(std::make_unique<std::atomic<AccessTap*>>(nullptr)),
      budget_mu_(std::make_unique<std::mutex>()),
      timing_mu_(std::make_unique<std::mutex>()),
      engine_(config.device, seed),
      endurance_(config.device.capacity_blocks * config.device.block_bytes,
                 config.device.endurance_dwpd),
      staging_metrics_(std::make_unique<AtomicStoreMetrics>()) {
  if (config_.block_bytes % config_.vector_bytes != 0) {
    throw std::invalid_argument("vector_bytes must divide block_bytes");
  }
  if (!storage_factory_) {
    throw std::invalid_argument("Store: null storage factory");
  }
}

Store Store::from_plan(const StoreConfig& config, const StorePlan& plan,
                       std::span<const EmbeddingTable> tables,
                       BlockStorageFactory storage_factory,
                       std::uint64_t seed) {
  StoreBuilder builder(config);
  builder.seed(seed);
  if (storage_factory) builder.storage(std::move(storage_factory));
  return builder.add_plan(plan, tables).build();
}

Store Store::open(const StoreConfig& config, const std::string& manifest_path,
                  BlockStorageFactory storage_factory, std::uint64_t seed) {
  std::string err;
  auto m = load_manifest(manifest_path, &err);
  if (!m) throw std::runtime_error("Store::open: " + err);
  if (m->block_bytes != config.block_bytes ||
      m->vector_bytes != config.vector_bytes) {
    throw std::runtime_error(
        "Store::open: config geometry (" + std::to_string(config.block_bytes) +
        "B blocks, " + std::to_string(config.vector_bytes) +
        "B vectors) disagrees with manifest (" +
        std::to_string(m->block_bytes) + "B blocks, " +
        std::to_string(m->vector_bytes) + "B vectors)");
  }
  if (!storage_factory) {
    if (m->block_file.empty()) {
      throw std::runtime_error(
          "Store::open: manifest records no block file (memory-backed "
          "stores are not recoverable) — pass a storage factory");
    }
    // Preserve mode by construction: the factory probes this same manifest,
    // finds it valid, and verifies the block file's size before opening.
    storage_factory = file_storage_factory(m->block_file, manifest_path);
  }
  Store store(config, std::move(storage_factory), seed);
  store.restore_from(*m, manifest_path);
  return store;
}

void Store::restore_from(const Manifest& m, const std::string& manifest_path) {
  std::unique_lock lock(*storage_mu_);
  ensure_capacity(m.storage_blocks);
  const std::uint32_t vpb = config_.vectors_per_block();
  free_list_ = m.free_pool;
  for (std::size_t i = 0; i < m.tables.size(); ++i) {
    const ManifestTable& mt = m.tables[i];
    // Older writers kept a per-table replacement bank: it joins the one
    // free list (this writer stores it empty).
    free_list_.insert(free_list_.end(), mt.free_blocks.begin(),
                      mt.free_blocks.end());
    republish_in_flight_.push_back(0);
    if (mt.retired) {
      // A tombstone builds no table (older manifests still carry its final
      // mapping, which nothing needs).
      tables_.emplace_back();
      continue;
    }
    for (const BlockId g : mt.block_map) {
      if (g >= m.storage_blocks) {
        throw std::runtime_error(
            "Store::open: table " + std::to_string(i) + " maps block " +
            std::to_string(g) + " past the manifest's storage size " +
            std::to_string(m.storage_blocks));
      }
    }
    // from_order validates the permutation; the table ctor validates the
    // map/layout shapes against each other and the config geometry.
    tables_.push_back(std::make_unique<BandanaTable>(
        config_, mt.policy, BlockLayout::from_order(mt.order, vpb),
        mt.access_counts, mt.block_map));
  }
  // Crash-orphaned reservations (an unfinished install or trickle): no
  // table references these blocks — reclaim them as free capacity. No
  // re-commit needed; reclaiming again on the next reopen is idempotent,
  // and the next durable commit drops the records.
  for (const std::vector<BlockId>& blocks : m.reservations) {
    free_list_.insert(free_list_.end(), blocks.begin(), blocks.end());
  }
  next_block_ = static_cast<BlockId>(m.next_block);
  trickle_epoch_ = m.trickle_epoch;
  manifest_seq_ = m.commit_seq;
  manifest_path_ = manifest_path;
  block_file_ = m.block_file;
  // No re-commit: the loaded manifest IS the durable state; the next swap
  // or add_table writes the next version.
}

void Store::attach_manifest(std::string manifest_path, std::string block_file) {
  std::unique_lock lock(*storage_mu_);
  {
    std::lock_guard mlock(*manifest_mu_);
    manifest_path_ = std::move(manifest_path);
    block_file_ = std::move(block_file);
  }
  // Commit immediately: the store is recoverable from this point on.
  commit_manifest();
}

std::uint64_t Store::trickle_epoch() const {
  std::lock_guard mlock(*manifest_mu_);
  return trickle_epoch_;
}

void Store::set_manifest_fault_hooks(ManifestCommitHooks hooks) {
  std::lock_guard mlock(*manifest_mu_);
  manifest_hooks_ = std::move(hooks);
}

Manifest Store::compose_manifest() const {
  Manifest m;
  m.commit_seq = manifest_seq_ + 1;
  m.trickle_epoch = trickle_epoch_;
  m.block_bytes = config_.block_bytes;
  m.vector_bytes = config_.vector_bytes;
  m.vectors_per_block = config_.vectors_per_block();
  m.storage_blocks = storage_ ? storage_->num_blocks() : 0;
  m.next_block = next_block_;
  m.block_file = block_file_;
  m.tables.reserve(tables_.size());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    ManifestTable& mt = m.tables.emplace_back();
    if (!tables_[t]) {
      mt.retired = true;  // A tombstone: empty mapping, nothing to restore.
      continue;
    }
    // first_block and free_blocks stay at their defaults (0, empty): the
    // v2 format keeps the fields, and the one free list is free_pool.
    auto snap = tables_[t]->mapping_snapshot();
    mt.order = snap.layout.order();
    mt.block_map = std::move(snap.block_map);
    mt.access_counts = std::move(snap.access_counts);
    mt.policy = snap.policy;
  }
  m.free_pool = free_list_;
  m.reservations.reserve(reservations_.size());
  for (const auto& [id, blocks] : reservations_) {
    m.reservations.push_back(blocks);
  }
  return m;
}

void Store::commit_manifest() {
  std::lock_guard mlock(*manifest_mu_);
  commit_manifest_mlocked();
}

void Store::commit_manifest_mlocked() {
  if (manifest_path_.empty()) return;
  // Durability barrier BEFORE the pointer flip: every block the new
  // manifest references must survive a crash before the manifest does.
  if (storage_) storage_->sync();
  const Manifest m = compose_manifest();
  write_manifest(manifest_path_, m, &manifest_hooks_);
  manifest_seq_ = m.commit_seq;
  staging_metrics_->manifest_commits.fetch_add(1, std::memory_order_relaxed);
}

void Store::ensure_capacity(std::uint64_t total_blocks) {
  if (storage_ && storage_->num_blocks() >= total_blocks) return;
  const std::uint64_t used = next_block_;
  // Sample the first and last published blocks BEFORE the factory runs:
  // they re-verify the factory's preserve-on-regrowth contract below (a
  // legacy truncate-on-invocation factory would otherwise zero published
  // data silently — better to fail loudly).
  std::vector<std::byte> first_probe, last_probe;
  if (storage_ && used > 0) {
    first_probe.resize(config_.block_bytes);
    last_probe.resize(config_.block_bytes);
    storage_->read_block(0, first_probe);
    storage_->read_block(static_cast<BlockId>(used - 1), last_probe);
  }
  // If the factory throws, the store keeps serving from its old storage
  // untouched: factories preserve existing contents on re-creation (a
  // same-path file factory reopens without truncating), so nothing needs
  // draining or restoring up front.
  auto grown = storage_factory_(total_blocks, config_.block_bytes);
  if (!grown || grown->num_blocks() < total_blocks ||
      grown->block_bytes() != config_.block_bytes) {
    throw std::runtime_error("Store: storage factory produced bad geometry");
  }
  if (storage_ && used > 0) {
    if (!grown->same_backing(*storage_)) {
      // Distinct backends: migrate the written blocks in bounded chunks —
      // a 375 GB file-backed store must never be buffered wholesale through
      // memory. (Same-backing growth resized in place; nothing to copy.)
      const std::uint64_t chunk_blocks = std::min(used, kGrowthChunkBlocks);
      std::vector<std::byte> buf(chunk_blocks * config_.block_bytes);
      std::vector<BlockReadOp> reads(chunk_blocks);
      std::vector<BlockWriteOp> writes(chunk_blocks);
      for (std::uint64_t b0 = 0; b0 < used; b0 += chunk_blocks) {
        const std::uint64_t n = std::min(chunk_blocks, used - b0);
        for (std::uint64_t i = 0; i < n; ++i) {
          const auto block = std::span<std::byte>(buf).subspan(
              i * config_.block_bytes, config_.block_bytes);
          reads[i] = {static_cast<BlockId>(b0 + i), block};
          writes[i] = {static_cast<BlockId>(b0 + i), block};
        }
        // Batched chunk copy: both backends overlap their halves when they
        // can (the old storage's reads, the grown storage's writes).
        storage_->read_blocks(
            std::span<const BlockReadOp>(reads).first(n));
        grown->write_blocks(
            std::span<const BlockWriteOp>(writes).first(n));
      }
    }
    std::vector<std::byte> check(config_.block_bytes);
    grown->read_block(0, check);
    bool ok = check == first_probe;
    if (ok) {
      grown->read_block(static_cast<BlockId>(used - 1), check);
      ok = check == last_probe;
    }
    if (!ok) {
      throw std::runtime_error(
          "Store: storage factory lost published blocks on growth — "
          "factories must preserve existing contents when re-invoked "
          "(see BlockStorageFactory)");
    }
  }
  storage_ = std::move(grown);
}

void Store::reserve_blocks(std::uint64_t total_blocks) {
  std::unique_lock lock(*storage_mu_);
  ensure_capacity(total_blocks);
  // Keep the durable storage_blocks in step with the real file size (a
  // no-op when no manifest is attached — StoreBuilder attaches at build).
  commit_manifest();
}

TableId Store::add_table(const EmbeddingTable& values, BlockLayout layout,
                         TablePolicy policy,
                         std::vector<std::uint32_t> access_counts) {
  if (values.num_vectors() != layout.num_vectors() ||
      values.vector_bytes() != config_.vector_bytes) {
    throw std::invalid_argument("add_table: values shape mismatch");
  }
  std::unique_lock lock(*storage_mu_);
  const std::vector<BlockId> blocks = allocate_blocks(layout.num_blocks());
  std::unique_ptr<BandanaTable> table;
  try {
    table = std::make_unique<BandanaTable>(
        config_, policy, std::move(layout), std::move(access_counts), blocks);
    std::vector<BlockId> local(blocks.size());
    std::iota(local.begin(), local.end(), BlockId{0});
    // Closed loop: the table only serves once its blocks have landed, so
    // the backlog drains before the first read arrives.
    write_wave(blocks, WaveImages::composed(table->layout(), values, local),
               /*closed_loop=*/true, /*day=*/0.0);
  } catch (...) {
    // No mapping references the blocks: they go back on the list.
    free_list_.insert(free_list_.end(), blocks.begin(), blocks.end());
    throw;
  }
  tables_.push_back(std::move(table));
  republish_in_flight_.push_back(0);
  // The table becomes durable only when this commit's pointer flip lands:
  // a crash mid-write (or mid-commit) recovers to the previous manifest,
  // which simply does not know this table — its blocks are free there.
  commit_manifest();
  return static_cast<TableId>(tables_.size() - 1);
}

const BandanaTable& Store::checked_table(TableId t) const {
  if (t >= tables_.size()) {
    throw std::out_of_range("Store: bad table id " + std::to_string(t));
  }
  if (!tables_[t]) {
    throw std::logic_error("Store: table " + std::to_string(t) +
                           " was retired (migrated out)");
  }
  return *tables_[t];
}

double Store::schedule_reads(std::uint64_t reads, LatencyHistogram& recorder,
                             bool advance_clock, double arrival_us) {
  if (!config_.simulate_timing) return 0.0;
  std::lock_guard lock(*timing_mu_);
  // All of the request's block reads arrive together as one admission wave
  // into the event-driven engine: the gate caps outstanding reads at
  // queue_depth * channels, and each read joins the per-channel FIFO that
  // drains first — so latency grows with the request's own queue depth
  // (paper Fig. 2) and with channel backlog left by earlier requests.
  const double start = arrival_us < 0.0 ? now_us_ : arrival_us;
  const double max_done = engine_.submit_wave(start, reads);
  const double latency = max_done - start;
  recorder.add(latency);
  // Closed loop (lookup_batch): the caller waits for the query, so the
  // clock moves to its completion. Open loop (multi_get): arrivals are
  // paced by the caller via advance_time_us, so the clock stays at the
  // arrival time and overload shows up as channel backlog (paper Fig. 5).
  if (advance_clock) now_us_ = max_done;
  return latency;
}

Store::WaveTiming Store::schedule_writes(std::uint64_t writes,
                                          bool advance_clock) {
  if (writes > 0) {
    // Wave counters track real write traffic whether or not the timing
    // model is on (the golden replay suite pins them per backend).
    staging_metrics_->write_waves.fetch_add(1, std::memory_order_relaxed);
    staging_metrics_->write_blocks.fetch_add(writes,
                                             std::memory_order_relaxed);
  }
  if (!config_.simulate_timing || writes == 0) return {};
  std::lock_guard lock(*timing_mu_);
  // A write wave's block writes are one admission wave of IoKind::kWrite
  // events: they join the same per-channel FIFOs and hold the same
  // queue_depth x channels gate slots as reads, so write traffic contends
  // with read traffic exactly as the device's shared submission queue
  // would (paper §2.2). Closed loop drains the backlog (add_table: setup
  // completes before serving); open loop leaves it on the channels (live
  // pushes and installs: the Fig. 5 interference).
  const double start = now_us_;
  const double max_done =
      engine_.submit_wave(start, writes, nullptr, IoKind::kWrite);
  const double latency = max_done - start;
  write_latency_.add(latency);
  if (advance_clock) now_us_ = max_done;
  return {latency, max_done};
}

std::uint64_t Store::grant_background_writes(std::uint64_t wanted,
                                             double now, double interval_us) {
  if (!config_.simulate_timing || wanted == 0) return wanted;
  // The horizon is the device's own mean write service: a channel that
  // drains before now + horizon is idle for at least part of the next
  // write's service time, so one write there fills time reads left free,
  // and a read arriving behind it waits for about one write at most.
  std::uint64_t n = 0;
  {
    std::lock_guard lock(*timing_mu_);
    n = engine_.channels_draining_before(
        now + config_.device.mean_write_service_us());
  }
  // Progress floor: the rule alone grants nothing for as long as reads
  // keep every channel busy past the horizon, and a push would never swap.
  if (n == 0 && now >= budget_floor_at_us_) n = 1;
  n = std::min(n, wanted);
  if (n > 0) budget_floor_at_us_ = now + interval_us;
  return n;
}

void Store::stage_miss_blocks(const BandanaTable& table,
                              std::span<const VectorId> ids,
                              StagedBlockReads& staged) const {
  for (const VectorId v : ids) {
    if (table.is_cached(v)) continue;
    const BlockId b = table.global_block_of(v);
    if (staged.contains(b)) continue;
    if (staged.size() >= kMaxStagedBlocks) {
      // Not staged: the lookup will read its block inline. Counted per
      // sighting (not deduplicated among the truncated tail) — a visibility
      // signal, not an exact block count; retry_blocks is the exact one.
      staging_metrics_->stage_truncated_blocks.fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    staged.add(b);
  }
}

std::uint64_t Store::real_read_wave_blocks() const {
  return std::uint64_t{config_.device.queue_depth} * config_.device.channels;
}

std::uint64_t Store::real_write_wave_blocks() const {
  const std::uint64_t wave = real_read_wave_blocks();
  return wave == 0 ? kGrowthChunkBlocks : wave;
}

Store::WaveTiming Store::write_wave(std::span<const BlockId> targets,
                                    const WaveImages& images, bool closed_loop,
                                    double day) {
  const std::size_t bb = config_.block_bytes;
  const std::uint64_t n = targets.size();
  const std::uint64_t chunk = std::min(n, real_write_wave_blocks());
  // Composed images share ONE wave-sized buffer, so a push's DRAM overhead
  // is O(wave) however large the push. Caller bytes need none.
  std::optional<WaveComposeBuffer> wave;
  if (images.values != nullptr && n > 0) wave.emplace(*storage_, chunk * bb);
  std::vector<BlockWriteOp> ops;
  ops.reserve(static_cast<std::size_t>(chunk));
  for (std::uint64_t c0 = 0; c0 < n; c0 += chunk) {
    const std::uint64_t m = std::min(chunk, n - c0);
    ops.clear();
    for (std::uint64_t i = 0; i < m; ++i) {
      std::span<const std::byte> img;
      if (wave) {
        const auto buf = wave->buf.subspan(i * bb, bb);
        compose_block_bytes(*images.layout, *images.values,
                            images.local[c0 + i], config_.vector_bytes, buf);
        img = buf;
      } else {
        img = images.bytes.subspan((c0 + i) * bb, bb);
      }
      ops.push_back({targets[c0 + i], img});
    }
    storage_->write_blocks(ops);
    staging_metrics_->write_batches.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Endurance mutations and reads all serialize on the timing lock
    // (waves of different tables run concurrently under the shared storage
    // lock, and endurance() may be polled at any time).
    std::lock_guard timing_lock(*timing_mu_);
    endurance_.record_write(n * bb, day);
  }
  return schedule_writes(n, closed_loop);
}

StoreMetrics Store::store_metrics() const {
  StoreMetrics m = staging_metrics_->snapshot();
  std::shared_lock lock(*storage_mu_);
  if (storage_) {
    const BlockStorageWriteStats ws = storage_->write_stats();
    m.write_short_resubmits = ws.short_resubmits;
    m.registered_buffers_active = ws.registered_buffers_active;
  }
  return m;
}

void Store::note_retrain(double drain_us, double train_us, double diff_us,
                         std::uint64_t peak_training_bytes,
                         bool budget_overrun) {
  auto us = [](double v) {
    return v > 0.0 ? static_cast<std::uint64_t>(v) : 0;
  };
  StoreMetrics d;
  d.retrain_runs = 1;
  d.retrain_drain_us = us(drain_us);
  d.retrain_train_us = us(train_us);
  d.retrain_diff_us = us(diff_us);
  d.retrain_peak_training_bytes = peak_training_bytes;
  d.retrain_budget_overruns = budget_overrun ? 1 : 0;
  staging_metrics_->add(d);
}

double Store::lookup_batch(TableId t, std::span<const VectorId> ids,
                           std::span<std::byte> out) {
  if (out.size() < ids.size() * config_.vector_bytes) {
    throw std::invalid_argument("lookup_batch: output span too small");
  }
  MultiGetRequest request;
  request.add(t, ids);
  std::shared_lock storage_lock(*storage_mu_);
  const MultiGetResult res =
      multi_get_impl(request, /*arrival_us=*/-1.0, query_latency_,
                     /*advance_clock=*/true);
  std::ranges::copy(res.vectors.front(), out.begin());
  return res.service_latency_us;
}

double Store::lookup(TableId t, VectorId v, std::span<std::byte> out) {
  const VectorId ids[1] = {v};
  return lookup_batch(t, ids, out);
}

MultiGetResult Store::multi_get(const MultiGetRequest& request) {
  return multi_get(request, /*arrival_us=*/-1.0);
}

MultiGetResult Store::multi_get(const MultiGetRequest& request,
                                double arrival_us) {
  std::shared_lock storage_lock(*storage_mu_);
  return multi_get_impl(request, arrival_us, request_latency_,
                        /*advance_clock=*/false);
}

MultiGetResult Store::multi_get_impl(const MultiGetRequest& request,
                                     double arrival_us,
                                     LatencyHistogram& recorder,
                                     bool advance_clock) {
  const std::size_t vb = config_.vector_bytes;
  // Validate the whole request up front so a bad entry cannot leave it
  // half-served (and half-counted in the metrics).
  for (const auto& get : request.gets) {
    const BandanaTable& table = checked_table(get.table);
    const std::uint32_t num_vectors = table.num_vectors();
    for (const VectorId v : get.ids) {
      if (v >= num_vectors) {
        throw std::out_of_range("multi_get: bad vector id " +
                                std::to_string(v) + " for table " +
                                std::to_string(get.table));
      }
    }
  }

  // Overlapped-read backends: one staging pass over the whole request
  // collects every block the lookups will miss on (deduplicated across
  // tables and repeated id lists) and fetches them as admission-sized
  // batched waves — the request's real I/O overlaps exactly like its
  // simulated channel reads do. A lookup whose block the peek left out
  // (an earlier lookup of this request evicted it, the staging cap cut
  // it, or a concurrent request or swap moved it) reads it inline, in
  // request order, so every backend serves the same cache history.
  StagedBlockReads staged;
  const bool stage = storage_->prefers_batched_reads();
  if (stage) {
    for (const auto& get : request.gets) {
      stage_miss_blocks(*tables_[get.table], get.ids, staged);
    }
    staged.fetch(*storage_, real_read_wave_blocks());
    staging_metrics_->staged_blocks.fetch_add(staged.size(),
                                              std::memory_order_relaxed);
  }

  MultiGetResult result;
  result.vectors.resize(request.gets.size());
  result.per_table.resize(request.gets.size());
  // One dedup epoch per distinct table per request: a block read by an
  // earlier id list (even of the same table appearing twice) is not
  // re-counted. Lookups lock only the touched cache shard, so concurrent
  // requests to the same table interleave freely.
  std::vector<std::pair<TableId, std::uint64_t>> request_epochs;
  std::vector<BandanaTable::LookupOutcome> outcomes;
  std::uint64_t unstaged = 0;
  for (std::size_t g = 0; g < request.gets.size(); ++g) {
    const auto& get = request.gets[g];
    BandanaTable& table = *tables_[get.table];
    auto& bytes = result.vectors[g];
    auto& stats = result.per_table[g];
    bytes.resize(get.ids.size() * vb);

    std::uint64_t epoch = 0;
    const auto known =
        std::find_if(request_epochs.begin(), request_epochs.end(),
                     [&](const auto& e) { return e.first == get.table; });
    if (known != request_epochs.end()) {
      epoch = known->second;
    } else {
      epoch = table.begin_batch();
      request_epochs.emplace_back(get.table, epoch);
    }
    outcomes.assign(get.ids.size(), {});
    table.lookup_get(get.ids, *storage_, bytes, epoch,
                     stage ? &staged : nullptr, outcomes);
    for (const auto& outcome : outcomes) {
      if (outcome.hit) ++stats.hits;
      if (outcome.nvm_read) ++stats.block_reads;
      if (outcome.unstaged) ++unstaged;
    }
    stats.misses = get.ids.size() - stats.hits;
    result.block_reads += stats.block_reads;
  }
  if (unstaged > 0) {
    // Each unstaged lookup is one inline single-block read.
    staging_metrics_->deferred_lookups.fetch_add(unstaged,
                                                 std::memory_order_relaxed);
    staging_metrics_->retry_blocks.fetch_add(unstaged,
                                             std::memory_order_relaxed);
    staging_metrics_->retry_waves.fetch_add(unstaged,
                                            std::memory_order_relaxed);
  }
  if (AccessTap* tap = tap_->load(std::memory_order_acquire)) {
    // One tap call per table-get, after the whole request settled.
    for (std::size_t g = 0; g < request.gets.size(); ++g) {
      const auto& stats = result.per_table[g];
      tap->on_table_get(request.gets[g].table, request.gets[g].ids,
                        stats.hits, stats.misses);
    }
  }
  result.service_latency_us = schedule_reads(result.block_reads, recorder,
                                             advance_clock, arrival_us);
  return result;
}

std::future<MultiGetResult> Store::multi_get_async(MultiGetRequest request,
                                                   ThreadPool& pool) {
  auto promise = std::make_shared<std::promise<MultiGetResult>>();
  auto future = promise->get_future();
  auto owned = std::make_shared<MultiGetRequest>(std::move(request));
  // The request arrives NOW, even if the pool serves it later: capture the
  // timestamp so queued requests keep their true simulated arrival order.
  const double arrival_us = now_us();
  pool.submit([this, promise, owned, arrival_us] {
    try {
      promise->set_value(multi_get(*owned, arrival_us));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

void Store::set_access_tap(AccessTap* tap) {
  tap_->store(tap, std::memory_order_release);
  // Quiesce: every serving path holds the storage lock (shared) across its
  // tap invocation, so holding it uniquely for an instant guarantees that
  // any request which loaded the previous tap pointer has finished calling
  // it — and that requests admitted after we release observe the new
  // pointer. Without this, detaching a tap and destroying it would race a
  // pool thread mid-on_table_get.
  std::unique_lock quiesce(*storage_mu_);
}

void Store::record_empty_write_wave() {
  staging_metrics_->write_waves.fetch_add(1, std::memory_order_relaxed);
  if (config_.simulate_timing) {
    std::lock_guard lock(*timing_mu_);
    write_latency_.add(0.0);
  }
}

double Store::republish(TableId t, const EmbeddingTable& values, double day) {
  // The unlimited-rate trickle on the current mapping: one pump writes the
  // whole diff as one open-loop wave, so concurrent reads see the paper's
  // mixed-traffic interference (bench_fig05 read-vs-mixed sweep), and then
  // swaps and commits the mapping.
  TrickleRepublish push =
      begin_trickle(t, values, std::nullopt, RepublishConfig{}, day);
  push.pump();
  return push.state_->last_wave_us;
}

TrickleRepublish Store::begin_trickle_republish(
    TableId t, const EmbeddingTable& values, TablePlan plan,
    const RepublishConfig& republish_cfg, double day) {
  return begin_trickle(t, values, std::move(plan), republish_cfg, day);
}

TrickleRepublish Store::begin_trickle(TableId t, const EmbeddingTable& values,
                                      std::optional<TablePlan> plan,
                                      const RepublishConfig& republish_cfg,
                                      double day) {
  // Brief exclusive section: validate, claim the table (one session at a
  // time — the claim also freezes its mapping and its old blocks, since
  // every swap path checks the flag) and pin the DRAM capacity.
  {
    std::unique_lock lock(*storage_mu_);
    BandanaTable& table = checked_table(t);
    if (republish_in_flight_[t]) {
      throw std::logic_error(
          "begin_trickle_republish: a session for this table is already "
          "active");
    }
    if (values.num_vectors() != table.num_vectors() ||
        values.vector_bytes() != config_.vector_bytes) {
      throw std::invalid_argument(
          "begin_trickle_republish: values shape mismatch");
    }
    if (!plan) {
      auto current = table.mapping_snapshot();
      plan = TablePlan{std::move(current.layout),
                       std::move(current.access_counts), current.policy};
    }
    if (plan->layout.num_vectors() != table.num_vectors() ||
        plan->layout.vectors_per_block() != config_.vectors_per_block()) {
      throw std::invalid_argument(
          "begin_trickle_republish: layout shape mismatch");
    }
    // Online retraining re-packs and re-tunes admission; it does not
    // re-size the table's DRAM slab.
    plan->policy.cache_vectors = table.policy().cache_vectors;
    republish_in_flight_[t] = kTrickleClaim;
  }
  try {
    return begin_trickle_claimed(t, values, std::move(*plan), republish_cfg,
                                 day);
  } catch (...) {
    std::unique_lock lock(*storage_mu_);
    republish_in_flight_[t] = 0;
    throw;
  }
}

TrickleRepublish Store::begin_trickle_claimed(
    TableId t, const EmbeddingTable& values, TablePlan plan,
    const RepublishConfig& republish_cfg, double day) {
  auto s = std::make_unique<detail::TrickleState>(this, t, republish_cfg, day);

  // Plan diff: compose every block of the new plan and byte-compare it
  // with the block currently serving that local index. Unchanged blocks
  // keep their storage block and cost no device writes. Changed blocks get
  // replacement storage: never the old block, which must stay valid for
  // lookups until the swap. This is O(table) real I/O, so it runs under
  // the SHARED lock — the in_flight claim keeps the old mapping and its
  // blocks immutable, and serving reads proceed concurrently instead of
  // stalling behind a full-table diff.
  BandanaTable* table = nullptr;
  std::vector<BlockId> old_map;
  const std::uint32_t new_blocks = plan.layout.num_blocks();
  std::vector<BlockId> block_map(new_blocks, 0);
  std::vector<BlockId>& changed = s->changed;
  std::vector<std::byte> fresh(config_.block_bytes);
  std::vector<std::byte> current(config_.block_bytes);
  s->values = &values;
  {
    std::shared_lock lock(*storage_mu_);
    // The table pointer is stable for the store's lifetime (tables_ holds
    // unique_ptrs), but the vector itself must be indexed under a lock —
    // a concurrent add_table may reallocate it.
    table = tables_[t].get();
    old_map = table->block_map();
    const auto old_blocks = static_cast<std::uint32_t>(old_map.size());
    for (BlockId b = 0; b < new_blocks; ++b) {
      compose_block_bytes(plan.layout, values, b, config_.vector_bytes,
                          fresh);
      bool same = false;
      if (b < old_blocks) {
        storage_->read_block(old_map[b], current);
        same = fresh == current;
      }
      if (same) {
        block_map[b] = old_map[b];
        ++s->skipped;
        continue;
      }
      // The image is NOT buffered: pump() re-composes it lazily from the
      // caller's values when this block's wave goes out (O(wave) DRAM).
      changed.push_back(b);
      s->changed_vectors += plan.layout.block_members(b).size();
    }
  }
  staging_metrics_->republish_skipped_blocks.fetch_add(
      s->skipped, std::memory_order_relaxed);

  std::unique_lock lock(*storage_mu_);
  if (changed.empty()) {
    // Identical plan: nothing to write. If even the layout is unchanged
    // the push is a complete no-op (warm cache, no swap); a byte-identical
    // permutation still installs the new mapping. (changed.empty() implies
    // every new block matched an old one, so a block-count mismatch always
    // lands in count_changed_blocks.)
    if (count_changed_blocks(table->layout(), plan.layout) != 0) {
      const auto freed = table->swap_state(
          {std::move(plan.layout), std::move(block_map),
           std::move(plan.access_counts), plan.policy});
      free_list_.insert(free_list_.end(), freed.begin(), freed.end());
      staging_metrics_->mapping_swaps.fetch_add(1, std::memory_order_relaxed);
      s->installed_mapping = true;
    }
    record_empty_write_wave();
    republish_in_flight_[t] = 0;
    s->swapped = true;
    if (s->installed_mapping) {
      // The installed permutation changes the durable mapping even though
      // no block bytes moved — commit it like any other swap.
      std::lock_guard mlock(*manifest_mu_);
      ++trickle_epoch_;
      commit_manifest_mlocked();
    }
    return TrickleRepublish(std::move(s));
  }

  // Replacement blocks come from the one allocator and stay reserved — in
  // every manifest commit — until the session finishes or is abandoned.
  s->targets = allocate_blocks(changed.size());
  for (std::size_t k = 0; k < changed.size(); ++k) {
    block_map[changed[k]] = s->targets[k];
  }
  s->next.emplace(BandanaTable::RetrainedState{
      std::move(plan.layout), std::move(block_map),
      std::move(plan.access_counts), plan.policy});
  s->reservation = add_reservation(s->targets);
  return TrickleRepublish(std::move(s));
}

std::size_t Store::pump_trickle(detail::TrickleState& s) {
  std::lock_guard session_lock(s.mu);
  if (s.swapped) return 0;
  const std::uint64_t total = s.targets.size();
  // A rate-limited session draws on the store-wide background budget and
  // swaps only once the device has completed its waves. An unlimited one
  // (Store::republish) is the one-shot endpoint: all at once, swap at once.
  const bool budgeted = !s.limiter.unlimited();
  std::uint64_t n = 0;
  if (s.written < total) {
    // Held from the grant through the wave's engine submission, so two
    // sessions pumped from two threads never spend the same idle channel.
    std::unique_lock<std::mutex> grant(*budget_mu_, std::defer_lock);
    if (budgeted) grant.lock();
    const double now = now_us();
    const std::uint64_t allowed =
        std::min<std::uint64_t>(s.limiter.allowance(now), total - s.written);
    n = allowed;
    if (budgeted) {
      n = grant_background_writes(allowed, now, s.limiter.config().interval_us);
      if (n < allowed) {
        staging_metrics_->write_budget_waits.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    if (n == 0) return 0;
    {
      // Shared lock: the wave writes only blocks no current mapping
      // references, so it runs concurrently with serving reads — the only
      // contention is the one the device model charges for (the wave's
      // write events on the shared channel FIFOs). The images are composed
      // lazily from the caller's values, one admission wave at a time.
      std::shared_lock storage_lock(*storage_mu_);
      const auto next = [&](const std::vector<BlockId>& v) {
        return std::span<const BlockId>(v).subspan(s.written, n);
      };
      const WaveTiming wave = write_wave(
          next(s.targets),
          WaveImages::composed(s.next->layout, *s.values, next(s.changed)),
          /*closed_loop=*/false, s.day);
      s.last_wave_us = wave.latency_us;
      s.waves_done_us = std::max(s.waves_done_us, wave.done_us);
    }
    s.limiter.consume(now, n);
    s.peak_wave_bytes = std::max(
        s.peak_wave_bytes,
        std::min(n, real_write_wave_blocks()) * config_.block_bytes);
    s.written += n;
    ++s.waves;
  }
  // waves_done_us stays 0 with timing off, so the gate is open there.
  if (s.written == total && (!budgeted || now_us() >= s.waves_done_us)) {
    finish_trickle(s);
  }
  return static_cast<std::size_t>(n);
}

void Store::finish_trickle(detail::TrickleState& s) {
  // Shared lock: the swap itself synchronizes with lookups through the
  // table's shard locks; we only need to exclude storage-map mutators.
  // The manifest lock serializes this swap + free-list and reservation
  // update with any concurrent manifest compose or finish (another table's
  // finishing session) so every committed manifest captures a consistent
  // multi-table snapshot. Freed blocks cannot be reallocated before this
  // commit lands: allocation needs the unique lock.
  std::shared_lock storage_lock(*storage_mu_);
  std::lock_guard mlock(*manifest_mu_);
  BandanaTable& table = *tables_[s.table];
  auto freed = table.swap_state(std::move(*s.next));
  s.next.reset();
  table.note_republished(s.changed_vectors);
  free_list_.insert(free_list_.end(), freed.begin(), freed.end());
  drop_reservation(s.reservation, /*recycle=*/false);
  staging_metrics_->mapping_swaps.fetch_add(1, std::memory_order_relaxed);
  republish_in_flight_[s.table] = 0;
  s.installed_mapping = true;
  s.swapped = true;
  ++trickle_epoch_;
  // Durable commit of the swap: replacement blocks were written to storage
  // blocks no committed manifest maps (freshly grown, reserved, or freed
  // by an earlier COMMITTED swap), so until this commit's rename lands the
  // durable state is entirely the old plan; after it, entirely the new one.
  // If the commit throws, the in-memory store keeps serving the new plan
  // while the durable state stays on the old plan — crash-consistent
  // either way; the next successful commit re-converges them.
  commit_manifest_mlocked();
}

void Store::abandon_trickle(detail::TrickleState& s) noexcept {
  try {
    std::lock_guard session_lock(s.mu);
    if (s.swapped) return;
    std::unique_lock lock(*storage_mu_);
    // The replacement blocks were written (or reserved) but never became
    // reachable: recycle them and leave the table on the old plan. No
    // commit: a durable record of the reservation is reclaimed on reopen,
    // and the next commit drops it.
    drop_reservation(s.reservation, /*recycle=*/true);
    republish_in_flight_[s.table] = 0;
    s.swapped = true;
  } catch (...) {
    // Destructor context: losing the recycled blocks is survivable
    // (storage grows a little on the next push); crashing is not.
  }
}

// --- Cross-node migration primitives (cluster/rebalance.h) ---------------

void Store::claim_table_for_migration(TableId t) {
  std::unique_lock lock(*storage_mu_);
  checked_table(t);  // throws on bad id / retired table
  if (republish_in_flight_[t]) {
    throw std::logic_error(
        "claim_table_for_migration: a session for this table is already "
        "active");
  }
  republish_in_flight_[t] = kMigrationClaim;
}

void Store::release_table_claim(TableId t) noexcept {
  try {
    std::unique_lock lock(*storage_mu_);
    if (t < republish_in_flight_.size()) republish_in_flight_[t] = 0;
  } catch (...) {
    // Destructor context (RebalanceSession unwind): a leaked claim only
    // blocks future sessions on this table; crashing is worse.
  }
}

BandanaTable::RetrainedState Store::migration_snapshot(TableId t) const {
  std::shared_lock lock(*storage_mu_);
  const BandanaTable& table = checked_table(t);
  if (!republish_in_flight_[t]) {
    throw std::logic_error(
        "migration_snapshot: requires claim_table_for_migration");
  }
  // The claim excludes mapping swaps, so this snapshot stays byte-accurate
  // for the whole read-out stream that follows.
  return table.mapping_snapshot();
}

void Store::read_table_blocks(TableId t, std::uint32_t first_block,
                              std::uint32_t count, std::span<std::byte> out) {
  {
    std::shared_lock lock(*storage_mu_);
    const BandanaTable& table = checked_table(t);
    if (!republish_in_flight_[t]) {
      throw std::logic_error(
          "read_table_blocks: requires claim_table_for_migration");
    }
    const std::size_t bb = config_.block_bytes;
    if (out.size() < std::size_t{count} * bb) {
      throw std::invalid_argument("read_table_blocks: output span too small");
    }
    const std::vector<BlockId> map = table.block_map();
    if (std::uint64_t{first_block} + count > map.size()) {
      throw std::out_of_range("read_table_blocks: range past table end");
    }
    if (count == 0) return;
    // Batched read-out chunked to the admission wave: the donor's stream
    // traffic holds the same gate slots as serving reads would, never more.
    const std::uint64_t wave = real_write_wave_blocks();
    std::vector<BlockReadOp> ops;
    ops.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(wave, count)));
    for (std::uint64_t c0 = 0; c0 < count; c0 += wave) {
      const std::uint64_t n = std::min<std::uint64_t>(wave, count - c0);
      ops.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        ops.push_back({map[first_block + c0 + i],
                       out.subspan((c0 + i) * bb, bb)});
      }
      storage_->read_blocks(ops);
    }
  }
  staging_metrics_->migration_read_blocks.fetch_add(count,
                                                    std::memory_order_relaxed);
  // Open loop: migration read-out is background traffic; its reads stay
  // queued on the channels at the current clock so concurrent serving sees
  // the interference (bench_cluster during-migration sweep).
  schedule_reads(count, migration_latency_, /*advance_clock=*/false);
}

std::vector<BlockId> Store::allocate_blocks(std::uint64_t count) {
  const std::size_t reuse = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, free_list_.size()));
  // Grow before popping, so a throwing factory leaves the list intact.
  // (This also creates the storage on a fresh store, even for 0 blocks.)
  ensure_capacity(std::uint64_t{next_block_} + (count - reuse));
  std::vector<BlockId> out;
  out.reserve(static_cast<std::size_t>(count));
  out.assign(free_list_.rbegin(),
             free_list_.rbegin() + static_cast<std::ptrdiff_t>(reuse));
  free_list_.resize(free_list_.size() - reuse);
  while (out.size() < count) out.push_back(next_block_++);
  return out;
}

std::uint64_t Store::add_reservation(std::vector<BlockId> blocks) {
  const std::uint64_t id = ++next_reservation_id_;
  reservations_.emplace_back(id, std::move(blocks));
  return id;
}

void Store::drop_reservation(std::uint64_t id, bool recycle) {
  const auto it = std::ranges::find(
      reservations_, id, [](const auto& r) { return r.first; });
  if (it == reservations_.end()) return;
  if (recycle) {
    free_list_.insert(free_list_.end(), it->second.begin(), it->second.end());
  }
  reservations_.erase(it);
}

TableInstall Store::begin_table_install(
    BlockLayout layout, TablePolicy policy,
    std::vector<std::uint32_t> access_counts) {
  if (layout.vectors_per_block() != config_.vectors_per_block()) {
    throw std::invalid_argument(
        "begin_table_install: layout vectors_per_block disagrees with the "
        "store geometry");
  }
  // Counts are optional (empty) unless the policy needs them, and must
  // match the layout when present. The table's cache checks its policy
  // again at finish(), after every block is written; reject a bad one
  // before any block is reserved.
  if (!access_counts.empty() && access_counts.size() != layout.num_vectors()) {
    throw std::invalid_argument(
        "begin_table_install: access_counts shape mismatch");
  }
  PrefetchCache::check(policy.cache_policy(), layout.num_vectors(),
                       access_counts.size());
  auto s = std::make_unique<detail::InstallState>();
  s->store = this;
  s->policy = policy;
  const std::uint32_t blocks = layout.num_blocks();
  s->layout.emplace(std::move(layout));
  s->access_counts = std::move(access_counts);

  std::unique_lock lock(*storage_mu_);
  s->blocks = allocate_blocks(blocks);
  s->id = add_reservation(s->blocks);
  try {
    // The pending record becomes durable BEFORE any byte streams: a crash
    // mid-install reopens to a manifest that knows the reserved blocks are
    // reclaimable garbage and knows NO table — recovery serves entirely
    // from the donor copy.
    commit_manifest();
  } catch (...) {
    drop_reservation(s->id, /*recycle=*/true);
    throw;
  }
  return TableInstall(std::move(s));
}

std::size_t Store::install_write(detail::InstallState& s, std::uint32_t first,
                                 std::span<const std::byte> bytes) {
  std::lock_guard session_lock(s.mu);
  if (s.finished) {
    throw std::logic_error("TableInstall: install already finished");
  }
  const std::size_t bb = config_.block_bytes;
  if (bytes.size() % bb != 0) {
    throw std::invalid_argument(
        "TableInstall: bytes must be whole block images");
  }
  const std::uint64_t count = bytes.size() / bb;
  if (std::uint64_t{first} + count > s.blocks.size()) {
    throw std::out_of_range("TableInstall: write past the reservation");
  }
  if (count == 0) return 0;
  {
    // Shared lock: the reserved blocks are referenced by no mapping, so
    // serving reads proceed concurrently; only storage-map mutators are
    // excluded. Zero-copy: the wave writes straight from the caller's
    // bytes (the images were composed on the donor). Open loop: install
    // waves are background write traffic on the target's channels,
    // contending with its serving reads (paper §2.2 interference).
    std::shared_lock storage_lock(*storage_mu_);
    write_wave(std::span<const BlockId>(s.blocks).subspan(first, count),
               WaveImages::caller_bytes(bytes), /*closed_loop=*/false,
               /*day=*/0.0);
  }
  staging_metrics_->migration_write_blocks.fetch_add(
      count, std::memory_order_relaxed);
  s.written += count;
  ++s.waves;
  return static_cast<std::size_t>(count);
}

TableId Store::install_finish(detail::InstallState& s) {
  std::lock_guard session_lock(s.mu);
  if (s.finished) {
    throw std::logic_error("TableInstall: install already finished");
  }
  if (s.written < s.blocks.size()) {
    throw std::logic_error(
        "TableInstall: finish() before every reserved block was written");
  }
  std::unique_lock lock(*storage_mu_);
  // The restore ctor validates layout/map/count shapes against each other
  // and the config geometry, exactly as reopen does.
  auto table = std::make_unique<BandanaTable>(
      config_, s.policy, std::move(*s.layout), std::move(s.access_counts),
      s.blocks);
  tables_.push_back(std::move(table));
  republish_in_flight_.push_back(0);
  drop_reservation(s.id, /*recycle=*/false);
  s.finished = true;
  staging_metrics_->table_installs.fetch_add(1, std::memory_order_relaxed);
  // ONE commit flips both facts: the table exists and its pending record is
  // gone. Recovery sees "reclaimable blocks, no table" strictly before the
  // rename lands and "durable table" strictly after — never a half-table.
  commit_manifest();
  return static_cast<TableId>(tables_.size() - 1);
}

void Store::install_abandon(detail::InstallState& s) noexcept {
  try {
    std::lock_guard session_lock(s.mu);
    if (s.finished) return;
    std::unique_lock lock(*storage_mu_);
    drop_reservation(s.id, /*recycle=*/true);
    s.finished = true;
    // Drop the pending record durably while the backend still cooperates.
    // If this commit throws (abandon often runs because storage died), the
    // durable record survives and reopen reclaims the blocks — idempotent.
    commit_manifest();
  } catch (...) {
    // Destructor context: a stale pending record or a leaked reservation
    // costs a little storage until the next reopen; crashing is worse.
  }
}

void Store::retire_table(TableId t) {
  std::unique_lock lock(*storage_mu_);
  if (t >= tables_.size()) {
    throw std::out_of_range("retire_table: bad table id " + std::to_string(t));
  }
  if (!tables_[t]) return;  // idempotent
  if (republish_in_flight_[t] == kTrickleClaim) {
    throw std::logic_error("retire_table: a trickle republish of table " +
                           std::to_string(t) + " is in flight");
  }
  // The table's serving map is all it holds: its blocks go back on the
  // store-wide free list.
  const std::vector<BlockId> map = tables_[t]->block_map();
  free_list_.insert(free_list_.end(), map.begin(), map.end());
  // Free the table itself (cache slab, LRU, layout, per-vector arrays).
  // Its final counters fold into the store-level sum so total_metrics()
  // keeps counting them; the empty slot is the tombstone that keeps later
  // TableIds from shifting, and checked_table refuses it from here on.
  retired_metrics_.merge(tables_[t]->metrics());
  tables_[t].reset();
  // Terminal: retiring clears the migration's read-out claim.
  republish_in_flight_[t] = 0;
  staging_metrics_->tables_retired.fetch_add(1, std::memory_order_relaxed);
  // Donor-retire-LAST ordering (cluster/rebalance.h): by the time this
  // commit runs, the target's copy is durable and the placement flipped —
  // a crash on either side of this rename leaves a servable placement with
  // at least one committed replica of every vector.
  commit_manifest();
}

bool Store::table_retired(TableId t) const {
  std::shared_lock lock(*storage_mu_);
  if (t >= tables_.size()) {
    throw std::out_of_range("table_retired: bad table id " +
                            std::to_string(t));
  }
  return !tables_[t];
}

TrickleRepublish::TrickleRepublish(std::unique_ptr<detail::TrickleState> state)
    : state_(std::move(state)) {}

TrickleRepublish::TrickleRepublish(TrickleRepublish&& other) noexcept = default;

TrickleRepublish& TrickleRepublish::operator=(
    TrickleRepublish&& other) noexcept {
  if (this != &other) {
    if (state_) state_->store->abandon_trickle(*state_);
    state_ = std::move(other.state_);
  }
  return *this;
}

TrickleRepublish::~TrickleRepublish() {
  if (state_) state_->store->abandon_trickle(*state_);
}

std::size_t TrickleRepublish::pump() {
  return state_ ? state_->store->pump_trickle(*state_) : 0;
}

bool TrickleRepublish::done() const {
  if (!state_) return true;
  std::lock_guard lock(state_->mu);
  return state_->swapped;
}

bool TrickleRepublish::mapping_swapped() const {
  if (!state_) return false;
  std::lock_guard lock(state_->mu);
  return state_->installed_mapping;
}

TableId TrickleRepublish::table() const {
  return state_ ? state_->table : TableId{0};
}

std::uint64_t TrickleRepublish::total_blocks() const {
  return state_ ? state_->targets.size() : 0;
}

std::uint64_t TrickleRepublish::written_blocks() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->written;
}

std::uint64_t TrickleRepublish::skipped_blocks() const {
  return state_ ? state_->skipped : 0;
}

std::uint64_t TrickleRepublish::waves() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->waves;
}

std::uint64_t TrickleRepublish::peak_wave_bytes() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->peak_wave_bytes;
}

double TrickleRepublish::waves_done_us() const {
  if (!state_) return 0.0;
  std::lock_guard lock(state_->mu);
  return state_->waves_done_us;
}

TableInstall::TableInstall(std::unique_ptr<detail::InstallState> state)
    : state_(std::move(state)) {}

TableInstall::TableInstall(TableInstall&& other) noexcept = default;

TableInstall& TableInstall::operator=(TableInstall&& other) noexcept {
  if (this != &other) {
    if (state_) state_->store->install_abandon(*state_);
    state_ = std::move(other.state_);
  }
  return *this;
}

TableInstall::~TableInstall() {
  if (state_) state_->store->install_abandon(*state_);
}

std::size_t TableInstall::write_blocks(std::uint32_t first,
                                       std::span<const std::byte> bytes) {
  if (!state_) throw std::logic_error("TableInstall: moved-from handle");
  return state_->store->install_write(*state_, first, bytes);
}

TableId TableInstall::finish() {
  if (!state_) throw std::logic_error("TableInstall: moved-from handle");
  return state_->store->install_finish(*state_);
}

std::uint32_t TableInstall::total_blocks() const {
  return state_ ? static_cast<std::uint32_t>(state_->blocks.size()) : 0;
}

std::uint64_t TableInstall::written_blocks() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->written;
}

std::uint64_t TableInstall::waves() const {
  if (!state_) return 0;
  std::lock_guard lock(state_->mu);
  return state_->waves;
}

TableMetrics Store::table_metrics(TableId t) const {
  std::shared_lock lock(*storage_mu_);
  return checked_table(t).metrics();
}

const BandanaTable& Store::table(TableId t) const {
  return checked_table(t);
}

TableMetrics Store::total_metrics() const {
  std::shared_lock lock(*storage_mu_);
  TableMetrics total = retired_metrics_;
  for (const auto& table : tables_) {
    if (table) total.merge(table->metrics());
  }
  return total;
}

LatencyHistogram Store::query_latency_us() const {
  std::lock_guard lock(*timing_mu_);
  return query_latency_;
}

LatencyHistogram Store::request_latency_us() const {
  std::lock_guard lock(*timing_mu_);
  return request_latency_;
}

LatencyHistogram Store::write_latency_us() const {
  std::lock_guard lock(*timing_mu_);
  return write_latency_;
}

LatencyHistogram Store::migration_latency_us() const {
  std::lock_guard lock(*timing_mu_);
  return migration_latency_;
}

EnduranceTracker Store::endurance() const {
  std::lock_guard lock(*timing_mu_);
  return endurance_;
}

std::size_t Store::reclaim_retired_states() {
  std::shared_lock lock(*storage_mu_);
  std::size_t freed = 0;
  for (const auto& table : tables_) {
    if (table) freed += table->reclaim_retired();
  }
  return freed;
}

DramBytes Store::dram_bytes() const {
  std::shared_lock lock(*storage_mu_);
  DramBytes d;
  for (const auto& table : tables_) {
    if (table) d += table->dram_bytes();
  }
  if (storage_) d.storage_buffers = storage_->dram_bytes();
  // The free list and reservations change under the shared lock only
  // with manifest_mu_ held (finish_trickle).
  std::lock_guard mlock(*manifest_mu_);
  d.block_maps += free_list_.capacity() * sizeof(BlockId);
  for (const auto& r : reservations_) {
    d.block_maps += r.second.capacity() * sizeof(BlockId);
  }
  return d;
}

std::size_t Store::retired_states() const {
  std::shared_lock lock(*storage_mu_);
  std::size_t n = 0;
  for (const auto& table : tables_) {
    if (table) n += table->retired_count();
  }
  return n;
}

void Store::advance_time_us(double delta) {
  std::lock_guard lock(*timing_mu_);
  now_us_ += delta;
}

double Store::now_us() const {
  std::lock_guard lock(*timing_mu_);
  return now_us_;
}

}  // namespace bandana
