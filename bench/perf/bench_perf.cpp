// bench_perf — the repository's benchmark: four workloads, end-to-end
// metrics on the simulated device clock and the host wall clock, and a
// traced run for per-layer metrics. README.md in this directory defines
// every workload and metric.
//
//   bench_perf --workload <name> [--seed N] [--seconds S] [--trace FILE]
//              [--out FILE] [--dir DIR] [--commit SHA]
//   bench_perf --all [--sets K] [--runs R] [--out FILE] ...
//   bench_perf --compare BASE.json[@set] NEW.json[@set]
//   bench_perf --smoke        (from the repository root)
//
// A single-workload run prints, as its last stdout line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
// metrics untraced, the per-layer metrics with --trace. It exits non-zero
// when any request or check failed.
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "compare.h"
#include "json.h"

extern char** environ;

namespace perf {
namespace {

/// How far paper8-uring's simulated metrics may stray from paper8-dram4's.
constexpr double kBackendSimTolerance = 0.02;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

bool io_uring_live(const std::string& dir) {
  const std::string probe = dir + "/io_uring.probe";
  bool live = false;
  {
    AsyncFileBlockStorage s(probe, 1, 4096);
    live = s.io_uring_active();
  }
  std::remove(probe.c_str());
  return live;
}

std::string metric_json(const std::string& name, const Reported& r,
                        bool full) {
  std::string out = json::quote(name) + ":{\"value\":" + json::number(r.value) +
                    ",\"unit\":" + json::quote(metric_def(name).unit);
  if (full) {
    out += ",\"min\":" + json::number(r.min) + ",\"max\":" +
           json::number(r.max) + ",\"reps\":" + std::to_string(r.reps) +
           ",\"layer\":" + json::quote(metric_def(name).layer);
  }
  return out + "}";
}

/// The result line BENCHMARK.json describes: the listed metrics of this
/// run's mode.
std::string contract_line(const Bench& b) {
  std::string m;
  for (const MetricDef& def : kMetrics) {
    if (!def.listed || is_e2e(def) == b.traced()) continue;
    if (!m.empty()) m += ",";
    m += metric_json(def.name, b.results().at(def.name), false);
  }
  return "{\"correct\":" + std::string(b.failed() == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(b.attempted()) +
         ",\"failed\":" + std::to_string(b.failed()) + ",\"metrics\":{" + m +
         "}}";
}

std::string run_record(const Bench& b, const WorkloadDef& w, const Options& o,
                       double elapsed_s) {
  const Sizes& s = b.sizes();
  std::string checks;
  for (const auto& [name, ok] : b.checks()) {
    if (!checks.empty()) checks += ",";
    checks += json::quote(name) + ":" + (ok ? "true" : "false");
  }
  std::string metrics;
  for (const auto& [name, r] : b.results().all()) {
    if (!metrics.empty()) metrics += ",";
    metrics += metric_json(name, r, true);
  }
  const std::string cfg =
      "{\"scale\":" + json::number(s.scale) +
      ",\"tables\":8,\"train_queries\":" + std::to_string(s.train_queries) +
      ",\"eval_queries\":" + std::to_string(s.eval_queries) +
      ",\"cycles\":" + std::to_string(s.cycles) +
      ",\"cycle_requests\":" + std::to_string(s.cycle_requests) +
      ",\"dram_frac\":" + json::number(b.dram_frac()) +
      ",\"backend\":" + json::quote(b.backend()) +
      ",\"cache_shards\":4,\"threads\":" + std::to_string(b.threads()) +
      ",\"nominal_kreq_s\":" + json::number(1e3 / kInterarrivalUs) +
      ",\"p99_limit_us\":" + json::number(kP99LimitUs) + "}";
  const std::string env =
      "{\"commit\":" + json::quote(o.commit) +
      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"io_uring\":" + (io_uring_live(o.dir) ? "true" : "false") +
      ",\"fs_type\":" + json::quote(fs_type(o.dir)) +
      ",\"dir\":" + json::quote(o.dir) + "}";
  return "{\"schema\":\"bench_perf/1\",\"workload\":" + json::quote(w.name) +
         ",\"seed\":" + std::to_string(o.seed) +
         ",\"traced\":" + (b.traced() ? "true" : "false") +
         ",\"smoke\":" + (o.smoke ? "true" : "false") +
         ",\"seconds\":" + json::number(o.seconds) +
         ",\"elapsed_s\":" + json::number(elapsed_s) + ",\"config\":" + cfg +
         ",\"env\":" + env + ",\"correct\":" +
         (b.failed() == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(b.attempted()) +
         ",\"failed\":" + std::to_string(b.failed()) + ",\"checks\":{" +
         checks + "},\"metrics\":{" + metrics + "}}";
}

void remove_data_files(const std::string& dir) {
  for (const char* tag : {"serve", "rep", "cmp-bare", "cmp-node", "side"}) {
    for (const char* ext : {".blocks", ".manifest", ".manifest.tmp"}) {
      std::remove((dir + "/" + tag + ext).c_str());
    }
  }
}

int run_one(const Options& o) {
  const WorkloadDef* w = find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(o.dir);
  const auto t0 = Clock::now();
  Bench b(*w, o);
  b.run();
  remove_data_files(o.dir);
  if (b.traced()) b.spans().write_chrome(o.trace_path);
  if (!o.out_path.empty()) {
    std::ofstream out(o.out_path);
    out << run_record(b, *w, o, seconds_since(t0)) << "\n";
    if (!out) throw std::runtime_error("cannot write " + o.out_path);
  }
  std::printf("%s\n", contract_line(b).c_str());
  return b.failed() == 0 ? 0 : 1;
}

/// Run this binary again with `args`, stdout to `stdout_path`; returns
/// its exit status once it has ended.
int spawn_self(const std::vector<std::string>& args,
               const std::string& stdout_path) {
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> owned = args;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("posix_spawn failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

std::string last_line(const std::string& path) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

/// One child per workload (and per set/run); prints every metric as
/// `workload metric value unit` and returns the parsed run records.
std::vector<json::Value> run_children(const Options& o, std::size_t sets,
                                      std::size_t runs, bool traced,
                                      int& status) {
  std::filesystem::create_directories(o.dir);
  std::vector<json::Value> records;
  for (std::size_t set = 0; set < sets; ++set) {
    for (std::size_t run = 0; run < runs; ++run) {
      for (const WorkloadDef& w : kWorkloads) {
        const std::string out = o.dir + "/child-" + w.name + ".json";
        std::vector<std::string> args = {
            "--workload", w.name, "--seed", std::to_string(o.seed), "--out",
            out, "--dir", o.dir, "--commit", o.commit};
        if (o.seconds > 0.0) {
          args.insert(args.end(), {"--seconds", json::number(o.seconds)});
        }
        if (o.smoke) args.push_back("--smoke");
        if (traced) {
          args.insert(args.end(),
                      {"--trace", o.dir + "/trace-" + w.name + ".json"});
        }
        const int rc = spawn_self(args, out + ".stdout");
        if (rc != 0) {
          std::fprintf(stderr, "%s exited with %d\n", w.name, rc);
          status = 1;
          continue;
        }
        json::Value rec = json::parse_file(out);
        rec.object["set"].type = json::Value::Type::kNumber;
        rec.object["set"].number = static_cast<double>(set);
        rec.object["run"].type = json::Value::Type::kNumber;
        rec.object["run"].number = static_cast<double>(run);
        rec.object["stdout_last_line"].type = json::Value::Type::kString;
        rec.object["stdout_last_line"].string = last_line(out + ".stdout");
        std::remove(out.c_str());
        std::remove((out + ".stdout").c_str());
        for (const auto& [name, m] : rec.at("metrics").object) {
          std::printf("%-14s %-30s %14.6g %s\n", w.name, name.c_str(),
                      m.at("value").num(), m.at("unit").str().c_str());
        }
        std::fflush(stdout);
        records.push_back(std::move(rec));
      }
    }
  }
  // The storage backend should not change what the device sees: same seed,
  // same plan, same traffic. It does not match bit for bit: on a staging
  // backend a lookup whose block an earlier lookup of the same request
  // evicted after the staging peek is deferred to a retry wave, which
  // reorders cache insertions (seeds 1-10 differ by at most 0.7 %).
  for (const json::Value& u : records) {
    if (u.at("workload").str() != "paper8-uring" || u.at("traced").boolean) {
      continue;
    }
    for (const json::Value& d : records) {
      if (d.at("workload").str() != "paper8-dram4" ||
          d.at("traced").boolean || d.at("set").num() != u.at("set").num() ||
          d.at("run").num() != u.at("run").num()) {
        continue;
      }
      for (const char* m : {"sim_p50_us", "sim_p99_us", "sim_max_kreq_s"}) {
        const double uv = u.at("metrics").at(m).at("value").num();
        const double dv = d.at("metrics").at(m).at("value").num();
        if (std::fabs(uv - dv) > kBackendSimTolerance * dv) {
          std::fprintf(stderr,
                       "CHECK FAILED: paper8-uring %s = %g differs from "
                       "paper8-dram4's %g by more than %g%%\n",
                       m, uv, dv, 100.0 * kBackendSimTolerance);
          status = 1;
        }
      }
    }
  }
  return records;
}

void write_collection(const std::string& path,
                      const std::vector<json::Value>& records) {
  std::ofstream out(path);
  out << "{\"schema\":\"bench_perf/1\",\"runs\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << (i ? ",\n" : "") << json::dump(records[i]);
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// --smoke: every workload at the smoke size, untraced and traced, and
/// every result checked against BENCHMARK.json and the registry.
int smoke(Options o) {
  const auto t0 = Clock::now();
  o.smoke = true;
  int status = 0;
  std::vector<json::Value> records = run_children(o, 1, 1, false, status);
  const std::vector<json::Value> traced = run_children(o, 1, 1, true, status);
  records.insert(records.end(), traced.begin(), traced.end());
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "SMOKE FAILED: %s\n", what.c_str());
    status = 1;
  };

  const json::Value bench = json::parse_file("BENCHMARK.json");
  std::vector<std::string> names;
  for (const json::Value& w : bench.at("workloads").array) {
    names.push_back(w.at("name").str());
    if (find_workload(names.back()) == nullptr) fail("unknown workload " + names.back());
  }
  if (names.size() != std::size(kWorkloads)) fail("workload count");
  const auto same_list = [&](const char* key, bool e2e) {
    std::vector<std::string> listed;
    for (const json::Value& m : bench.at(key).array) {
      const std::string name = m.at("name").str();
      listed.push_back(name);
      const MetricDef* def = nullptr;
      for (const MetricDef& d : kMetrics) {
        if (name == d.name) def = &d;
      }
      if (def == nullptr || !def->listed || is_e2e(*def) != e2e ||
          m.at("unit").str() != def->unit ||
          m.at("better").str() != def->better ||
          (e2e && m.at("bound").num() != def->bound)) {
        fail(std::string(key) + " entry " + name +
             " disagrees with the registry");
      }
    }
    for (const MetricDef& d : kMetrics) {
      if (d.listed && is_e2e(d) == e2e &&
          std::find(listed.begin(), listed.end(), d.name) == listed.end()) {
        fail(std::string(key) + " lacks " + d.name);
      }
    }
    return listed;
  };
  const auto e2e = same_list("end_to_end", true);
  const auto layer = same_list("per_layer", false);

  for (const json::Value& r : records) {
    const std::string tag = r.at("workload").str() +
                            (r.at("traced").boolean ? " (traced)" : "");
    json::Value line;
    try {
      line = json::parse(r.at("stdout_last_line").str());
    } catch (const std::exception& e) {
      fail(tag + ": last stdout line is not JSON: " + e.what());
      continue;
    }
    if (line.object.size() != 4 || !line.has("correct") ||
        !line.has("attempted") || !line.has("failed") || !line.has("metrics")) {
      fail(tag + ": result keys");
      continue;
    }
    if (!line.at("correct").boolean || line.at("failed").num() != 0 ||
        line.at("attempted").num() < 1) {
      fail(tag + ": not correct");
    }
    const auto& expect = r.at("traced").boolean ? layer : e2e;
    if (line.at("metrics").object.size() != expect.size()) fail(tag + ": metric count");
    for (const std::string& name : expect) {
      if (!line.at("metrics").has(name) ||
          line.at("metrics").at(name).at("unit").str() != metric_def(name).unit ||
          !line.at("metrics").at(name).at("value").is_number()) {
        fail(tag + ": metric " + name);
      }
    }
  }
  const double s = seconds_since(t0);
  std::printf("smoke: %zu runs checked in %.1f s: %s\n", records.size(), s,
              status == 0 ? "ok" : "FAILED");
  return status;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_perf --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--out FILE] [--dir DIR] [--commit SHA]\n"
               "       bench_perf --all [--sets K] [--runs R] [--out FILE] "
               "[--seed N] [--seconds S] [--dir DIR] [--commit SHA]\n"
               "       bench_perf --compare BASE.json[@set] NEW.json[@set]\n"
               "       bench_perf --smoke\n");
  std::exit(2);
}

int main_impl(int argc, char** argv) {
  Options o;
  std::string mode;
  std::vector<std::string> compare_args;
  std::size_t sets = 1, runs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") { o.workload = value(); mode = "one"; }
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace_path = value();
    else if (a == "--out") o.out_path = value();
    else if (a == "--dir") o.dir = value();
    else if (a == "--commit") o.commit = value();
    else if (a == "--smoke" && mode.empty()) { o.smoke = true; mode = "smoke"; }
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--all") mode = "all";
    else if (a == "--sets") sets = std::stoul(value());
    else if (a == "--runs") runs = std::stoul(value());
    else if (a == "--compare") {
      mode = "compare";
      compare_args.push_back(value());
      compare_args.push_back(value());
    } else {
      usage();
    }
  }
  if (mode == "one") return run_one(o);
  if (mode == "compare") {
    return compare_runs(load_runs(compare_args[0]), load_runs(compare_args[1]));
  }
  if (mode == "smoke") return smoke(o);
  if (mode == "all") {
    int status = 0;
    const auto records = run_children(o, sets, runs, /*traced=*/false, status);
    if (!o.out_path.empty()) write_collection(o.out_path, records);
    return status;
  }
  usage();
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    return perf::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: %s\n", e.what());
    return 2;
  }
}
