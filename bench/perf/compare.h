// `bench_perf --compare BASE NEW`: the verdict table a performance change
// is judged by.
//
// BASE and NEW are result files (one run, or a collection with "runs"); a
// `path@K` suffix keeps only the runs of set K, so the two halves of a
// baseline file can be compared with each other. For every (workload,
// end-to-end metric) pair present on both sides it prints each side's
// median and quartiles (over runs), the fraction of run pairs the new side
// wins, and a verdict against the metric's bound:
//   improved    new wins >= 90% of pairs and the medians differ by more
//               than the base's interquartile range, in the better
//               direction;
//   regressed   new median worse than base median by more than the bound;
//   unresolved  otherwise, when either side's spread (IQR / median) is
//               wider than the bound and not every new run beats every
//               base run;
//   unchanged   otherwise.
// The exit status is non-zero on any regression, or when the new side
// failed a larger fraction of its operations than the base.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "json.h"
#include "metrics.h"

namespace perf {

/// Runs of a result file; `spec` is `path` or `path@set`.
inline std::vector<json::Value> load_runs(const std::string& spec) {
  std::string path = spec;
  long set = -1;
  const auto at = spec.rfind('@');
  if (at != std::string::npos) {
    path = spec.substr(0, at);
    set = std::stol(spec.substr(at + 1));
  }
  const json::Value doc = json::parse_file(path);
  std::vector<json::Value> runs;
  const std::vector<json::Value> all =
      doc.has("runs") ? doc.at("runs").array : std::vector<json::Value>{doc};
  for (const json::Value& r : all) {
    if (set >= 0 && (!r.has("set") || r.at("set").num() != set)) continue;
    runs.push_back(r);
  }
  if (runs.empty()) throw std::runtime_error("no runs in " + spec);
  return runs;
}

namespace detail {

struct Side {
  std::vector<double> values;  ///< One per run, in run order.
  double med = 0.0, q1 = 0.0, q3 = 0.0;

  void finish() {
    med = median(values);
    std::tie(q1, q3) = quartiles(values);
  }
  double spread() const {
    return med != 0.0 ? (q3 - q1) / std::fabs(med) : (q3 > q1 ? 1.0 : 0.0);
  }
};

inline double failed_fraction(const std::vector<json::Value>& runs,
                              const std::string& workload) {
  double attempted = 0.0, failed = 0.0;
  for (const json::Value& r : runs) {
    if (r.at("workload").str() != workload) continue;
    attempted += r.at("attempted").num();
    failed += r.at("failed").num();
  }
  return attempted > 0.0 ? failed / attempted : 0.0;
}

}  // namespace detail

inline int compare_runs(const std::vector<json::Value>& base,
                        const std::vector<json::Value>& next) {
  std::set<std::string> workloads;
  for (const json::Value& r : base) workloads.insert(r.at("workload").str());
  int status = 0;
  std::printf("%-14s %-15s %26s %26s %7s %6s  %s\n", "workload", "metric",
              "base median [q1, q3]", "new median [q1, q3]", "delta", "won",
              "verdict");
  for (const std::string& w : workloads) {
    for (const MetricDef& def : kMetrics) {
      if (!is_e2e(def) || std::string(def.name) == "failed_frac") continue;
      detail::Side b, n;
      bool present = true;
      for (const auto* side : {&base, &next}) {
        auto& out = side == &base ? b : n;
        for (const json::Value& r : *side) {
          if (r.at("workload").str() != w) continue;
          if (!r.at("metrics").has(def.name)) {
            present = false;
            break;
          }
          out.values.push_back(r.at("metrics").at(def.name).at("value").num());
        }
      }
      if (!present || b.values.empty() || n.values.empty()) continue;
      b.finish();
      n.finish();
      const bool lower = std::string(def.better) == "lower";
      const auto better = [&](double x, double y) {
        return lower ? x < y : x > y;
      };
      const std::size_t pairs = std::min(b.values.size(), n.values.size());
      std::size_t won = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(n.values[i], b.values[i])) ++won;
      }
      const double won_frac =
          static_cast<double>(won) / static_cast<double>(pairs);
      bool all_better = true;
      for (const double x : n.values) {
        for (const double y : b.values) all_better = all_better && better(x, y);
      }
      const double delta =
          b.med != 0.0 ? (n.med - b.med) / std::fabs(b.med) : 0.0;
      const double worse = lower ? delta : -delta;
      const char* verdict = "unchanged";
      if (won_frac >= 0.9 && worse < 0.0 &&
          std::fabs(n.med - b.med) > b.q3 - b.q1) {
        verdict = "improved";
      } else if (worse > def.bound) {
        verdict = "regressed";
        status = 1;
      } else if (std::max(b.spread(), n.spread()) > def.bound && !all_better) {
        verdict = "unresolved";
      }
      std::printf("%-14s %-15s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                  "%+6.1f%% %5.0f%%  %s (bound %.0f%%)\n",
                  w.c_str(), def.name, b.med, b.q1, b.q3, n.med, n.q1, n.q3,
                  100.0 * delta, 100.0 * won_frac, verdict, 100.0 * def.bound);
    }
    const double fb = detail::failed_fraction(base, w);
    const double fn = detail::failed_fraction(next, w);
    const bool rose = fn > fb;
    if (rose) status = 1;
    std::printf("%-14s %-15s %10.4g %26s %10.4g %s\n", w.c_str(),
                "failed_frac", fb, "", fn,
                rose ? "regressed (more operations failed)" : "");
  }
  return status;
}

}  // namespace perf
