#include "core/retrainer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "partition/layout.h"

namespace bandana {

double trickle_push_budget_us(std::span<const std::uint64_t> session_blocks,
                              const RepublishConfig& cfg,
                              const NvmDeviceConfig& device) {
  if (cfg.blocks_per_interval == 0) return 0.0;
  const auto rounds = [](std::uint64_t blocks, std::uint64_t per_round) {
    return (blocks + per_round - 1) / per_round;
  };
  std::uint64_t intervals = 0;
  std::uint64_t blocks_sum = 0;
  for (const std::uint64_t blocks : session_blocks) {
    intervals =
        std::max(intervals, rounds(blocks, cfg.blocks_per_interval));
    blocks_sum += blocks;
  }
  intervals = std::max(intervals,
                       rounds(blocks_sum, std::max(device.channels, 1u)));
  return static_cast<double>(intervals) * cfg.interval_us;
}

TrafficSampler::TrafficSampler(std::size_t num_tables, SamplerConfig cfg)
    : cfg_(cfg) {
  if (cfg_.reservoir_queries == 0) {
    throw std::invalid_argument("TrafficSampler: reservoir_queries must be > 0");
  }
  tables_.reserve(num_tables);
  for (std::size_t t = 0; t < num_tables; ++t) {
    tables_.push_back(std::make_unique<TableSampler>(
        splitmix64(cfg_.seed ^ (0x5EED5EEDULL + t))));
  }
}

void TrafficSampler::on_table_get(TableId table, std::span<const VectorId> ids,
                                  std::uint64_t hits, std::uint64_t misses) {
  if (table >= tables_.size() || ids.empty()) return;
  TableSampler& ts = *tables_[table];
  ts.traffic.add({.seen_queries = 1, .lookups = hits + misses, .hits = hits});

  // Sampling-rate gate, lock-free: admit iff a hash of the table's stream
  // position clears the rate (SHARDS-style, like cache/mini_cache.h's
  // in_sample) — rejected queries never touch the mutex, so the tap does
  // not serialize the hot path. Deterministic in a single-threaded
  // schedule (the position sequence is the draw).
  const std::uint64_t pos = ts.stream.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.sampling_rate < 1.0 &&
      static_cast<double>(splitmix64(pos ^ ts.gate_salt)) >=
          cfg_.sampling_rate * 18446744073709551616.0 /* 2^64 */) {
    return;
  }

  std::lock_guard lock(ts.mu);
  // Vitter's algorithm R over the admitted stream: every admitted query
  // ends up in the reservoir with equal probability, so the retrain input
  // is an unbiased window of recent traffic whatever the volume. The
  // replacement draw comes from the table's own seeded stream.
  ++ts.admitted;
  total_sampled_.fetch_add(1, std::memory_order_relaxed);
  if (ts.reservoir.size() < cfg_.reservoir_queries) {
    ts.reservoir.emplace_back(ids.begin(), ids.end());
    return;
  }
  const std::uint64_t j = ts.rng.next_below(ts.admitted);
  if (j < cfg_.reservoir_queries) {
    ts.reservoir[j].assign(ids.begin(), ids.end());
  }
}

std::uint64_t TrafficSampler::reservoir_size(TableId t) const {
  TableSampler& ts = *tables_.at(t);
  std::lock_guard lock(ts.mu);
  return ts.reservoir.size();
}

TableTrafficStats TrafficSampler::traffic(TableId t) const {
  return tables_.at(t)->traffic.snapshot();
}

std::vector<Trace> TrafficSampler::drain() {
  std::vector<Trace> traces;
  traces.reserve(tables_.size());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    traces.push_back(drain_table(static_cast<TableId>(t)));
  }
  return traces;
}

Trace TrafficSampler::drain_table(TableId t) {
  TableSampler& ts = *tables_.at(t);
  Trace trace;
  std::lock_guard lock(ts.mu);
  for (const auto& ids : ts.reservoir) {
    trace.add_query(ids);
  }
  ts.reservoir.clear();
  ts.admitted = 0;  // next window restarts algorithm R
  return trace;
}

OnlineRetrainer::OnlineRetrainer(Store& store, RetrainerConfig cfg,
                                 ValuesProvider values)
    : store_(store),
      cfg_(std::move(cfg)),
      values_(std::move(values)),
      sampler_(store.num_tables(), cfg_.sampler) {
  if (!values_) {
    throw std::invalid_argument("OnlineRetrainer: null values provider");
  }
  store_.set_access_tap(&sampler_);
}

OnlineRetrainer::~OnlineRetrainer() {
  stop();
  store_.set_access_tap(nullptr);
}

std::size_t OnlineRetrainer::retrain_now() { return retrain_impl(); }

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::size_t OnlineRetrainer::retrain_impl() {
  // Phase 1 (under mu_): claim the retrain slot and drain the reservoirs
  // of every table with sampled traffic and no push still in flight. A
  // mid-trickle table is skipped WITHOUT draining: its reservoir keeps
  // accumulating, so the drift signal survives until the push lands and a
  // later retrain can use it.
  std::vector<TableId> chosen;
  std::vector<Trace> traces;
  std::vector<std::uint32_t> sizes;
  std::uint64_t capacity_sum = 0;
  const auto t_drain = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(mu_);
    if (retrain_running_) return 0;  // another thread is mid-retrain
    sampled_at_last_retrain_.store(sampler_.total_sampled(),
                                   std::memory_order_relaxed);
    for (std::size_t t = 0;
         t < sampler_.num_tables() && t < store_.num_tables(); ++t) {
      const auto table_id = static_cast<TableId>(t);
      const bool busy =
          std::any_of(sessions_.begin(), sessions_.end(),
                      [&](const TrickleRepublish& s) {
                        return s.table() == table_id && !s.done();
                      });
      if (busy) continue;
      Trace trace = sampler_.drain_table(table_id);
      if (trace.num_queries() == 0) continue;
      chosen.push_back(table_id);
      traces.push_back(std::move(trace));
      sizes.push_back(store_.table(table_id).num_vectors());
      // Snapshot, not a reference: a pump on another thread may swap (and
      // reclaim) this table's state while we read its policy.
      capacity_sum += store_.table(table_id).policy_snapshot().cache_vectors;
    }
    if (chosen.empty()) return 0;
    ++stats_.retrains;
    retrain_running_ = true;
  }

  // Phase 2 (unlocked): the offline pipeline on the sampled window —
  // seconds of pure CPU at realistic sizes, so stats()/republishing()/
  // pump() must not stall behind it. DRAM does not move: the allocator
  // runs over the affected tables' existing total (its split is discarded
  // anyway — begin_trickle_republish pins each table's capacity), so
  // threshold tuning sees realistic sizes.
  const double drain_us = elapsed_us(t_drain);
  std::size_t opened = 0;
  try {
    TrainerConfig trainer_cfg = cfg_.trainer;
    trainer_cfg.total_cache_vectors =
        std::max<std::uint64_t>(1, capacity_sum);
    Trainer trainer(store_.config(), trainer_cfg);
    // Value-based backends (K-means) need the embedding values the push
    // will carry; trace-based backends ignore them. The budget check below
    // reads the store's simulated clock across this whole phase, the clock
    // the push estimate is written in; train_us stays wall time.
    const double sim_start_us = store_.now_us();
    std::vector<const EmbeddingTable*> vals;
    vals.reserve(chosen.size());
    for (const TableId t : chosen) vals.push_back(&values_(t));
    TrainerStats tstats;
    const auto t_train = std::chrono::steady_clock::now();
    StorePlan plan = trainer.train(traces, sizes, nullptr, vals, &tstats);
    const double train_us = elapsed_us(t_train);
    const double train_sim_us = store_.now_us() - sim_start_us;

    // Phase 3 (under mu_): open the trickle sessions. The chosen tables
    // cannot have grown a session meanwhile (only retrains open sessions
    // and the retrain slot is claimed), and the store would throw on a
    // duplicate anyway.
    const auto t_diff = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> session_blocks;
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const TableId t = chosen[i];
      TrickleRepublish session = store_.begin_trickle_republish(
          t, values_(t), std::move(plan.tables[i]), cfg_.republish);
      if (session.done()) {
        // The push resolved at begin: either a complete no-op, or a
        // byte-identical permutation whose mapping swap happened eagerly.
        stats_.blocks_skipped += session.skipped_blocks();
        if (session.mapping_swapped()) {
          ++stats_.swaps;
        } else {
          ++stats_.tables_unchanged;
        }
        continue;
      }
      session_blocks.push_back(session.total_blocks());
      sessions_.push_back(std::move(session));
      ++stats_.sessions_opened;
      ++opened;
    }
    const double diff_us = elapsed_us(t_diff);

    // Latency budget: the rate-limited sessions push side by side, each
    // under its own limit and all under the store's one background
    // budget, so this plan's push takes about the longer of its largest
    // session and the budget's one block per channel per round. A training
    // phase that spans more simulated time than that can never keep up
    // with its own republish cadence — warn, and count it where dashboards
    // look (StoreMetrics::retrain_budget_overruns).
    const double push_us = trickle_push_budget_us(
        session_blocks, cfg_.republish, store_.config().device);
    const bool overrun = push_us > 0.0 && train_sim_us > push_us;
    if (overrun) {
      std::fprintf(stderr,
                   "bandana: retrain training spanned %.0f us of simulated "
                   "time, more than the trickle push estimate %.0f us (%zu "
                   "sessions at %llu blocks per %.0f us interval each, on "
                   "one device budget)\n",
                   train_sim_us, push_us, session_blocks.size(),
                   static_cast<unsigned long long>(
                       cfg_.republish.blocks_per_interval),
                   cfg_.republish.interval_us);
    }
    stats_.drain_us += static_cast<std::uint64_t>(drain_us);
    stats_.train_us += static_cast<std::uint64_t>(train_us);
    stats_.diff_us += static_cast<std::uint64_t>(diff_us);
    stats_.peak_training_bytes =
        std::max(stats_.peak_training_bytes, tstats.peak_training_bytes);
    if (overrun) ++stats_.budget_overruns;
    store_.note_retrain(drain_us, train_us, diff_us,
                        tstats.peak_training_bytes, overrun);
    retrain_running_ = false;
  } catch (...) {
    std::lock_guard lock(mu_);
    retrain_running_ = false;
    throw;
  }
  return opened;
}

std::size_t OnlineRetrainer::pump() {
  std::lock_guard lock(mu_);
  return pump_locked();
}

std::size_t OnlineRetrainer::pump_locked() {
  std::size_t wrote = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    wrote += it->pump();
    if (it->done()) {
      stats_.blocks_written += it->written_blocks();
      stats_.blocks_skipped += it->skipped_blocks();
      stats_.waves += it->waves();
      ++stats_.swaps;
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return wrote;
}

bool OnlineRetrainer::republishing() const {
  std::lock_guard lock(mu_);
  return !sessions_.empty();
}

RetrainerStats OnlineRetrainer::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void OnlineRetrainer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void OnlineRetrainer::stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void OnlineRetrainer::run() {
  const auto poll = std::chrono::duration<double, std::milli>(
      std::max(0.01, cfg_.poll_interval_ms));
  while (running_.load(std::memory_order_acquire)) {
    // An exception escaping a std::thread body would terminate the whole
    // serving process: catch everything (e.g. a backend write error mid
    // pump), log it, and keep the loop (and serving) alive.
    try {
      bool idle;
      {
        std::lock_guard lock(mu_);
        idle = sessions_.empty();
        if (!idle) pump_locked();
      }
      if (idle && cfg_.min_sampled_queries > 0 &&
          sampler_.total_sampled() -
                  sampled_at_last_retrain_.load(std::memory_order_relaxed) >=
              cfg_.min_sampled_queries) {
        retrain_impl();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bandana: background retrain error: %s\n",
                   e.what());
      std::lock_guard lock(mu_);
      ++stats_.background_errors;
    } catch (...) {
      std::fprintf(stderr, "bandana: background retrain error (unknown)\n");
      std::lock_guard lock(mu_);
      ++stats_.background_errors;
    }
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::microseconds>(poll));
  }
}

}  // namespace bandana
