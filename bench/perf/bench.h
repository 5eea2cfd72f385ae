// One workload run of bench_perf: set-up, the workload's serving phases,
// and either the end-to-end metrics (untraced) or the per-layer metrics
// (traced). See README.md for every metric's definition.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "metrics.h"
#include "replay.h"
#include "serve.h"
#include "spans.h"
#include "workload.h"

namespace perf {

enum class Kind { kDram4, kUring, kCluster, kRetrain };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* why;  ///< Copied verbatim into BENCHMARK.json.
};

inline constexpr WorkloadDef kWorkloads[] = {
    {"paper8-dram4", Kind::kDram4,
     "Working set far above a 4% DRAM cache on the memory backend: "
     "partition, cache and engine set the device clock, store sets host "
     "CPU."},
    {"paper8-uring", Kind::kUring,
     "Same plan and traffic on io_uring file storage: every miss is staged "
     "through read_blocks, so storage sets wall time; sim metrics track "
     "paper8-dram4's."},
    {"cluster4-fits", Kind::kCluster,
     "4-node cluster with DRAM for every vector: past compulsory misses all "
     "lookups hit, so cache-hit CPU and router scatter/gather dominate; the "
     "control for engine and storage."},
    {"retrain-drift", Kind::kRetrain,
     "8 drift cycles of online SHP retraining with rate-limited trickle "
     "pushes beside paced reads on io_uring storage with a manifest: the "
     "write side shows."},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1234;
  double seconds = 0.0;  ///< 0 = fixed repetitions instead of a budget.
  std::string trace_path;
  std::string out_path;
  std::string dir = "/dev/shm/bandana-bench";
  std::string commit = "unknown";
  bool smoke = false;
};

class Bench {
 public:
  Bench(const WorkloadDef& w, const Options& o);

  /// Runs the workload; fills results(), attempted(), failed().
  void run();

  const Results& results() const { return results_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::pair<std::string, bool>>& checks() const {
    return checks_;
  }
  const SpanRecorder& spans() const { return spans_; }
  unsigned threads() const { return threads_; }
  const Sizes& sizes() const { return sizes_; }
  bool traced() const { return !opt_.trace_path.empty(); }
  const char* backend() const;
  double dram_frac() const { return w_.kind == Kind::kCluster ? 1.0 : 0.04; }

 private:
  bool file_backed() const {
    return w_.kind == Kind::kUring || w_.kind == Kind::kRetrain;
  }
  StoreConfig store_config(bool timing = true) const;
  TrainerConfig trainer_config() const;
  std::string path(const std::string& tag) const { return opt_.dir + "/" + tag; }
  Tier build(const StorePlan& plan, const std::string& tag,
             bool timing = true) const;
  void check(const std::string& name, bool ok);

  void setup(Tier& tier);
  PacedPass paced(Tier& tier);
  PacedPass cycles(Tier& tier);
  void repetitions(const PacedPass& pass);
  void layer_probes(Tier& tier, const PacedPass& pass);
  void router_probe();
  /// Returns the untraced, timing-on async kreq/s.
  double async_probes();

  const WorkloadDef& w_;
  Options opt_;
  Sizes sizes_;
  unsigned threads_;
  Model model_;
  StorePlan plan_;
  SpanRecorder spans_;
  Results results_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, bool>> checks_;
  Clock::time_point t_serve_;  ///< When the measured phases began.
  TableMetrics cache_before_, cache_after_;
};

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perf
