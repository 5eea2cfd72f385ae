// Online retraining: close the loop from live serving traffic back to the
// partitioner (paper §2.2 — production embedding models are retrained and
// re-pushed continuously, 10-20 times a day, while serving).
//
// Three pieces:
//
//  * TrafficSampler — an AccessTap on the store's serving path. Every
//    served table-get bumps lock-free per-table counters (seen queries,
//    lookups, hits — the drift monitor) and, at the configured sampling
//    rate, enters a bounded per-table reservoir (Vitter's algorithm R) of
//    whole queries. Queries, not ids: SHP learns from co-access, so the
//    sample must preserve which vectors appeared together.
//
//  * OnlineRetrainer::retrain_now — drains the reservoirs into per-table
//    Traces, re-runs the offline pipeline (Trainer::train: SHP + hit-rate
//    curves + threshold tuning) on the sampled traffic, and opens one
//    rate-limited trickle republish session per table whose plan actually
//    changed (Store::begin_trickle_republish diffs block-by-block; a table
//    whose layout and values are unchanged costs one zero-length wave).
//    DRAM capacities are preserved — online retraining re-packs blocks and
//    re-tunes admission, it does not move DRAM between tables.
//
//  * The background mode (start/stop) — a thread that auto-retrains once
//    enough fresh queries have been sampled and pumps the open sessions,
//    so the whole retrain → trickle → swap cycle runs concurrently with
//    serving. This is the new concurrency boundary: the thread only
//    touches the store through begin_trickle_republish (brief unique
//    lock) and pump (shared lock), and the mapping swap synchronizes with
//    lookups inside BandanaTable.
//
// Determinism: the sampler's reservoir decisions derive from its seed, and
// everything downstream (Trainer, plan diff, trickle waves) is already
// seed-deterministic — a single-threaded serve/retrain/republish schedule
// replays bit-identically (tests/test_replay_golden.cpp). Under concurrent
// serving the reservoir contents depend on arrival interleaving, as a real
// sampler's would.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/store.h"
#include "core/trainer.h"
#include "trace/trace.h"

namespace bandana {

struct SamplerConfig {
  /// Reservoir capacity per table, in queries. Bounds retrain input (and
  /// memory) regardless of traffic volume.
  std::uint64_t reservoir_queries = 2048;
  /// Fraction of served table-gets offered to the reservoir. 1.0 samples
  /// everything (small deployments / tests); production would run at a few
  /// percent, like the paper's SHARDS-style sampling elsewhere.
  double sampling_rate = 1.0;
  std::uint64_t seed = 42;
};

/// Lock-free drift counters of one table (snapshot).
struct TableTrafficStats {
  std::uint64_t seen_queries = 0;  ///< Table-gets offered to the sampler.
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

class TrafficSampler final : public AccessTap {
 public:
  TrafficSampler(std::size_t num_tables, SamplerConfig cfg);

  /// Serving-path hook (thread-safe): counters are relaxed atomics and the
  /// sampling-rate gate is a lock-free hash of the table's stream position
  /// — the table's small mutex is taken only for the (rare, at production
  /// sampling rates) admitted queries, so the tap does not re-serialize
  /// the sharded cache's same-table parallelism.
  void on_table_get(TableId table, std::span<const VectorId> ids,
                    std::uint64_t hits, std::uint64_t misses) override;

  std::size_t num_tables() const { return tables_.size(); }
  /// Queries admitted into reservoirs since construction (all tables).
  std::uint64_t total_sampled() const {
    return total_sampled_.load(std::memory_order_relaxed);
  }
  /// Queries currently held in table t's reservoir.
  std::uint64_t reservoir_size(TableId t) const;
  TableTrafficStats traffic(TableId t) const;

  /// Move every table's reservoir out as a Trace (one per table, possibly
  /// empty) and reset the reservoirs for the next window. Traffic counters
  /// are cumulative and are NOT reset.
  std::vector<Trace> drain();

  /// Drain one table's reservoir (the retrainer uses this to leave the
  /// windows of tables with a push still in flight accumulating).
  Trace drain_table(TableId t);

 private:
  struct TableSampler {
    std::mutex mu;
    std::vector<std::vector<VectorId>> reservoir;
    Rng rng;                     ///< Reservoir replacement draws (under mu).
    std::uint64_t admitted = 0;  ///< Stream position of algorithm R.
    std::uint64_t gate_salt = 0;
    std::atomic<std::uint64_t> stream{0};  ///< Gate position (lock-free).
    std::atomic<std::uint64_t> seen{0};
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};

    explicit TableSampler(std::uint64_t seed)
        : rng(seed), gate_salt(splitmix64(seed ^ 0x6A7E6A7EULL)) {}
  };

  SamplerConfig cfg_;
  std::vector<std::unique_ptr<TableSampler>> tables_;
  std::atomic<std::uint64_t> total_sampled_{0};
};

struct RetrainerConfig {
  SamplerConfig sampler;
  /// Offline-pipeline knobs for the retrain runs. total_cache_vectors is
  /// overridden per retrain to the affected tables' current capacities
  /// (DRAM does not move); shp.vectors_per_block follows the store config.
  TrainerConfig trainer;
  /// Trickle rate limit of the republish push (0 blocks_per_interval =
  /// unlimited, the one-shot endpoint).
  RepublishConfig republish;
  /// Background mode: auto-retrain once this many queries were sampled
  /// since the last retrain (0 = never auto-retrain; retrain_now only).
  std::uint64_t min_sampled_queries = 512;
  /// Background thread poll cadence (real time).
  double poll_interval_ms = 1.0;
};

struct RetrainerStats {
  std::uint64_t retrains = 0;          ///< retrain_now invocations that ran.
  std::uint64_t sessions_opened = 0;   ///< Trickle sessions with work to do.
  std::uint64_t tables_unchanged = 0;  ///< Pushes resolved as no-ops.
  std::uint64_t blocks_written = 0;    ///< Across completed sessions.
  std::uint64_t blocks_skipped = 0;    ///< Diff-skipped, across pushes.
  std::uint64_t waves = 0;             ///< Write waves of completed sessions.
  std::uint64_t swaps = 0;             ///< Completed mapping swaps.
  std::uint64_t background_errors = 0; ///< Exceptions the background thread
                                       ///< caught (logged to stderr; the
                                       ///< push was abandoned, serving and
                                       ///< the thread keep running).
  /// Retrain latency budget (also mirrored into StoreMetrics retrain_*):
  /// cumulative wall time per phase, the max training-memory estimate, and
  /// how often training outran the RepublishConfig-derived push budget —
  /// a retrain slower than its own trickle push means stale plans queue up.
  std::uint64_t drain_us = 0;           ///< Phase 1: reservoir drain.
  std::uint64_t train_us = 0;           ///< Phase 2: Trainer::train.
  std::uint64_t diff_us = 0;            ///< Phase 3: plan diff/session open.
  std::uint64_t peak_training_bytes = 0;  ///< Max over retrains.
  std::uint64_t budget_overruns = 0;    ///< train_us > push budget events.
};

/// Simulated time a rate-limited push of one retrain takes, given each
/// opened trickle session's block count. Every session carries its own
/// rate limiter, so the sessions push side by side and the largest sets
/// the time: the max over sessions of ceil(blocks / blocks_per_interval)
/// x interval_us. 0 when the push is unlimited or there is nothing to push.
double trickle_push_budget_us(std::span<const std::uint64_t> session_blocks,
                              const RepublishConfig& cfg);

/// Ties a Store, a TrafficSampler and the Trainer into the live retraining
/// loop. Construction attaches the sampler to the store's serving path;
/// destruction stops the background thread (if started) and detaches it.
/// The retrainer must be destroyed before the store, and the store must
/// not be moved while the retrainer exists. `values(t)` supplies the
/// embedding bytes to push for table t — in production the freshly
/// retrained values; it is called from whichever thread retrains, and the
/// returned reference must stay valid until that push's trickle session
/// completes (block images are composed lazily per wave, so the session
/// reads from the values for its whole lifetime — the retrainer pumps
/// every session it opens to completion before it returns or retrains
/// again, so a provider whose referents outlive the retrainer satisfies
/// this automatically).
class OnlineRetrainer {
 public:
  using ValuesProvider = std::function<const EmbeddingTable&(TableId)>;

  OnlineRetrainer(Store& store, RetrainerConfig cfg, ValuesProvider values);
  ~OnlineRetrainer();

  OnlineRetrainer(const OnlineRetrainer&) = delete;
  OnlineRetrainer& operator=(const OnlineRetrainer&) = delete;

  TrafficSampler& sampler() { return sampler_; }
  const TrafficSampler& sampler() const { return sampler_; }

  /// Synchronous retrain: drain the reservoirs, run Trainer::train on
  /// every table with sampled traffic (and no session already in flight),
  /// and open trickle sessions for the tables whose plan changed. Returns
  /// the number of sessions opened (no-op pushes complete immediately and
  /// count as tables_unchanged). Safe to call while the background thread
  /// runs: the training itself runs outside the retrainer lock (so
  /// stats()/pump() never stall behind it), and a retrain already in
  /// progress on another thread makes this call return 0.
  std::size_t retrain_now();

  /// Pump every open session once at the store's current simulated clock;
  /// completed sessions are retired into stats(). Returns blocks written.
  std::size_t pump();

  /// True while any trickle session is unfinished.
  bool republishing() const;

  RetrainerStats stats() const;

  /// Start/stop the background thread (idempotent). While running it
  /// pumps open sessions and auto-retrains per min_sampled_queries.
  void start();
  void stop();

 private:
  std::size_t retrain_impl();
  std::size_t pump_locked();
  void run();

  Store& store_;
  RetrainerConfig cfg_;
  ValuesProvider values_;
  TrafficSampler sampler_;

  mutable std::mutex mu_;  ///< sessions_ + stats_ + retrain_running_.
  std::vector<TrickleRepublish> sessions_;
  RetrainerStats stats_;
  /// A retrain is between its drain and session-open phases (training
  /// runs unlocked; this keeps a second retrain from double-draining).
  bool retrain_running_ = false;
  std::atomic<std::uint64_t> sampled_at_last_retrain_{0};

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace bandana
