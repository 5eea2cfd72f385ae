// The metric registry of bench_perf, and the per-run result container.
//
// Every number the harness reports is declared here once, with its unit,
// which direction is better, the layer it belongs to and (end-to-end
// metrics) the bound by which it may worsen before --compare calls it a
// regression. BENCHMARK.json lists the `listed` metrics with the same
// units, directions and bounds; `bench_perf --smoke` fails if the two
// disagree. A listed metric is reported on every workload and is never
// constant: unlisted are retrain-drift's write side (one workload only),
// failed_frac (0 when all is well) and counters or checks that read the
// same on every fault-free run. Unlisted metrics still appear in the
// result files, in `--all` and in `--compare`.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perf {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher".
  const char* layer;   ///< "e2e" or the layer (module) it measures.
  double bound;        ///< e2e only: allowed relative worsening.
  bool listed;         ///< In BENCHMARK.json (see above).
};

inline constexpr MetricDef kMetrics[] = {
    // ---- End to end (untraced runs) ----
    {"setup_s", "s", "lower", "e2e", 0.25, true},
    {"wall_kreq_s", "kreq/s", "higher", "e2e", 0.25, true},
    {"wall_p50_us", "us", "lower", "e2e", 0.25, true},
    {"sim_p50_us", "us", "lower", "e2e", 0.15, true},
    {"sim_p99_us", "us", "lower", "e2e", 0.10, true},
    {"sim_max_kreq_s", "kreq/s", "higher", "e2e", 0.20, true},
    {"peak_rss_mib", "MiB", "lower", "e2e", 0.05, true},
    {"push_s", "s", "lower", "e2e", 0.25, false},
    {"sim_push_ms", "ms", "lower", "e2e", 0.05, false},
    {"failed_frac", "fraction", "lower", "e2e", 0.0, false},
    // ---- Per layer (traced runs) ----
    {"partition.train_s", "s", "lower", "partition", 0, true},
    {"partition.shp_fanout", "blocks/query", "lower", "partition", 0, true},
    {"cache.hit_rate", "fraction", "higher", "cache", 0, true},
    {"cache.eff_bw_frac", "fraction", "higher", "cache", 0, true},
    {"cache.prefetch_hit_frac", "fraction", "higher", "cache", 0, true},
    {"store.blocks_per_req", "blocks", "lower", "store", 0, true},
    {"store.wall_us_per_lookup", "us", "lower", "store", 0, true},
    {"store.wall_p99_us", "us", "lower", "store", 0, true},
    {"store.async_speedup", "x", "higher", "store", 0, true},
    {"store.timing_cost_frac", "fraction", "lower", "store", 0, true},
    {"engine.admission_wait_p99_us", "us", "lower", "engine", 0, false},
    {"engine.queue_wait_p99_us", "us", "lower", "engine", 0, true},
    {"engine.service_p50_us", "us", "lower", "engine", 0, true},
    {"engine.channel_util", "fraction", "lower", "engine", 0, true},
    {"engine.ns_per_io", "ns", "lower", "engine", 0, true},
    {"engine.replay_exact", "flag", "higher", "engine", 0, false},
    {"engine.analytic_gap_frac", "fraction", "lower", "engine", 0, true},
    {"storage.wave_us_p50", "us", "lower", "storage", 0, true},
    {"storage.wave_us_p99", "us", "lower", "storage", 0, true},
    {"storage.blocks_per_wave", "blocks", "higher", "storage", 0, true},
    {"storage.read_mib_s", "MiB/s", "higher", "storage", 0, true},
    {"staging.deferred_per_req", "lookups", "lower", "storage", 0, true},
    {"staging.retry_waves_per_req", "waves", "lower", "storage", 0, true},
    {"staging.truncated_blocks", "blocks", "lower", "storage", 0, false},
    {"reclaim.retired_states_max", "states", "lower", "trickle", 0, false},
    {"router.overhead_us", "us", "lower", "router", 0, true},
    {"router.sub_requests_per_req", "requests", "lower", "router", 0, true},
    {"router.node_lookup_imbalance", "ratio", "lower", "router", 0, true},
    {"router.failovers", "count", "lower", "router", 0, false},
    {"trace.overhead_frac", "fraction", "lower", "trace", 0, true},
    {"retrain.train_s", "s", "lower", "trickle", 0, false},
    {"retrain.diff_s", "s", "lower", "trickle", 0, false},
    {"trickle.pump_us_p50", "us", "lower", "trickle", 0, false},
    {"trickle.pump_us_p99", "us", "lower", "trickle", 0, false},
    {"trickle.blocks_per_wave", "blocks", "higher", "trickle", 0, false},
    {"trickle.batches_per_wave", "batches", "lower", "trickle", 0, false},
    {"trickle.read_p99_inflation", "x", "lower", "trickle", 0, false},
    {"manifest.commit_ms", "ms", "lower", "trickle", 0, false},
    {"manifest.commits_per_push", "commits", "lower", "trickle", 0, false},
};

inline const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return m;
  }
  throw std::runtime_error("unknown metric " + name);
}

inline bool is_e2e(const MetricDef& m) { return std::string(m.layer) == "e2e"; }

/// Median of a sample (mean of the middle two for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// First and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) computes them (the "exclusive"
/// method), so the spreads reported here match any script's.
inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0]};
  const long m = n + 1;
  const auto q = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

/// One reported metric: the median over the run's repetitions of its
/// phase, with the extremes (min == max == value for single measurements).
struct Reported {
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t reps = 1;
};

class Results {
 public:
  void set(const std::string& name, double v) { set_reps(name, {v}); }

  void set_reps(const std::string& name, const std::vector<double>& reps) {
    metric_def(name);  // reject names the registry does not know
    if (reps.empty()) throw std::runtime_error("no samples for " + name);
    for (const double r : reps) {
      if (!std::isfinite(r)) throw std::runtime_error("non-finite " + name);
    }
    Reported r;
    r.value = median(reps);
    r.min = *std::min_element(reps.begin(), reps.end());
    r.max = *std::max_element(reps.begin(), reps.end());
    r.reps = reps.size();
    values_[name] = r;
  }

  /// Like set_reps, but reports the sample's q-quantile (nearest rank).
  void set_quantile(const std::string& name, const std::vector<double>& reps,
                    double q) {
    set_reps(name, reps);
    values_[name].value = percentile(reps, q);
  }

  const Reported& at(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) throw std::runtime_error("missing metric " + name);
    return it->second;
  }
  const std::map<std::string, Reported>& all() const { return values_; }

 private:
  std::map<std::string, Reported> values_;
};

}  // namespace perf
