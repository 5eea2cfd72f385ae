// Inputs and serving tiers of bench_perf's workloads.
//
// The model is the 8 paper tables (trace/paper_workload.h) at a fixed
// scale: per table a training trace, an evaluation trace and embedding
// values, all derived from the workload seed. A request is one evaluation
// query of every table (~84 lookups). A Tier is one freshly built serving
// front end — a bare Store, or a StoreCluster behind its router — so the
// serving loops below drive both through the same calls.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bandana.h"

namespace perf {

using namespace bandana;

struct Sizes {
  double scale = 0.1;               ///< 0.1 = 110k vectors over 8 tables.
  std::size_t train_queries = 12'000;
  std::size_t eval_queries = 20'000;
  std::size_t cycle_requests = 6'000;  ///< retrain-drift, per cycle.
  std::size_t cycles = 8;
  std::size_t router_requests = 5'000;  ///< router.overhead_us sample.
};

inline Sizes sizes_for(bool smoke) {
  Sizes s;
  if (smoke) {
    s.scale = 0.02;
    s.train_queries = 1'000;
    s.eval_queries = 1'000;
    s.cycle_requests = 500;
    s.router_requests = 500;
  }
  return s;
}

struct Model {
  std::vector<std::unique_ptr<TraceGenerator>> gens;
  std::vector<Trace> train;
  std::vector<Trace> eval;
  std::vector<EmbeddingTable> values;
  std::vector<std::uint32_t> sizes;
  std::uint64_t total_vectors = 0;
};

inline Model make_model(const Sizes& s, std::uint64_t seed) {
  PaperWorkloadOptions opts;
  opts.scale = s.scale;
  opts.dim = 32;
  Model m;
  const auto cfgs = paper_tables(opts);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    m.gens.push_back(
        std::make_unique<TraceGenerator>(cfgs[i], splitmix64(seed + i)));
    m.train.push_back(m.gens.back()->generate(s.train_queries));
    m.eval.push_back(m.gens.back()->generate(s.eval_queries));
    m.values.push_back(m.gens.back()->make_embeddings());
    m.sizes.push_back(cfgs[i].num_vectors);
    m.total_vectors += cfgs[i].num_vectors;
  }
  return m;
}

/// Request q: query q of every table's trace.
inline MultiGetRequest make_request(const std::vector<Trace>& traces,
                                    std::size_t q) {
  MultiGetRequest req;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    req.add(static_cast<TableId>(t), traces[t].query(q));
  }
  return req;
}

/// Byte check of served vectors against the source values. A vector is
/// correct when it equals that table's row in any accepted value set
/// (during a trickle push both the old and the new values are).
class Verifier {
 public:
  explicit Verifier(const std::vector<EmbeddingTable>* values)
      : accepted_{values} {}
  void accept(std::vector<const std::vector<EmbeddingTable>*> sets) {
    accepted_ = std::move(sets);
  }

  /// Number of wrong vectors in `res`.
  std::uint64_t wrong(const MultiGetRequest& req,
                      const MultiGetResult& res) const {
    std::uint64_t bad = 0;
    if (res.vectors.size() != req.gets.size()) return req.total_ids();
    for (std::size_t g = 0; g < req.gets.size(); ++g) {
      const auto& get = req.gets[g];
      const std::size_t vb = (*accepted_[0])[get.table].vector_bytes();
      if (res.vectors[g].size() != get.ids.size() * vb) {
        bad += get.ids.size();
        continue;
      }
      for (std::size_t i = 0; i < get.ids.size(); ++i) {
        const std::byte* got = res.vectors[g].data() + i * vb;
        bool ok = false;
        for (const auto* set : accepted_) {
          const auto want = (*set)[get.table].vector_bytes_view(get.ids[i]);
          ok = ok || std::memcmp(got, want.data(), vb) == 0;
        }
        if (!ok) ++bad;
      }
    }
    return bad;
  }

 private:
  std::vector<const std::vector<EmbeddingTable>*> accepted_;
};

/// One built serving tier.
struct Tier {
  std::unique_ptr<Store> store;
  std::unique_ptr<StoreCluster> cluster;

  std::uint32_t devices() const { return cluster ? cluster->num_nodes() : 1; }
  Store& device(std::uint32_t d) { return cluster ? cluster->node(d) : *store; }

  void advance(double us) {
    if (cluster) {
      cluster->advance_time_us(us);
    } else {
      store->advance_time_us(us);
    }
  }

  /// Synchronous request; `failed_lookups` grows by the ids the cluster
  /// could not serve.
  MultiGetResult get(const MultiGetRequest& req, std::uint64_t& failed_lookups) {
    if (!cluster) return store->multi_get(req);
    ClusterMultiGetResult r = cluster->router().multi_get(req);
    failed_lookups += r.failed_lookups;
    return std::move(r.result);
  }

  TableMetrics table_metrics() const {
    return cluster ? cluster->metrics().tables : store->total_metrics();
  }
  StoreMetrics store_metrics() const {
    return cluster ? cluster->metrics().store : store->store_metrics();
  }
  std::size_t retired_states() const {
    return cluster ? cluster->retired_states() : store->retired_states();
  }
};

/// Stable byte image of a plan, for the byte-identity check across the
/// set-up repetitions.
inline std::string plan_bytes(const StorePlan& plan) {
  std::string out;
  const auto put = [&](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (const TablePlan& t : plan.tables) {
    const auto& order = t.layout.order();
    put(order.data(), order.size() * sizeof(order[0]));
    put(t.access_counts.data(),
        t.access_counts.size() * sizeof(t.access_counts[0]));
    put(&t.policy.cache_vectors, sizeof t.policy.cache_vectors);
    put(&t.policy.policy, sizeof t.policy.policy);
    put(&t.policy.access_threshold, sizeof t.policy.access_threshold);
    put(&t.policy.insertion_position, sizeof t.policy.insertion_position);
    put(&t.policy.shadow_multiplier, sizeof t.policy.shadow_multiplier);
    put(&t.shp_train_fanout, sizeof t.shp_train_fanout);
  }
  return out;
}

/// `values` with every element shifted, so a push of it rewrites every
/// block (retrain-drift alternates between the two).
inline std::vector<EmbeddingTable> perturbed(
    const std::vector<EmbeddingTable>& values) {
  std::vector<EmbeddingTable> out;
  for (const EmbeddingTable& t : values) {
    EmbeddingTable p(t.num_vectors(), t.dim());
    for (VectorId v = 0; v < t.num_vectors(); ++v) {
      const auto src = t.vector(v);
      auto dst = p.vector(v);
      for (std::size_t d = 0; d < src.size(); ++d) dst[d] = src[d] + 1.0f;
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace perf
