#include "bench.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

namespace perf {

namespace {

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

Bench::Bench(const WorkloadDef& w, const Options& o)
    : w_(w),
      opt_(o),
      sizes_(sizes_for(o.smoke)),
      threads_(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)) {
  spans_.set_enabled(traced());
}

const char* Bench::backend() const {
  return file_backed() ? "async_file" : "memory";
}

StoreConfig Bench::store_config(bool timing) const {
  StoreConfig cfg;
  cfg.cache_shards = 4;
  cfg.simulate_timing = timing;
  return cfg;
}

TrainerConfig Bench::trainer_config() const {
  TrainerConfig cfg;
  cfg.total_cache_vectors =
      w_.kind == Kind::kCluster ? model_.total_vectors
                                : std::max<std::uint64_t>(1, model_.total_vectors / 25);
  return cfg;
}

Tier Bench::build(const StorePlan& plan, const std::string& tag,
                  bool timing) const {
  Tier tier;
  if (w_.kind == Kind::kCluster) {
    ClusterConfig cc;
    cc.nodes = 4;
    cc.replicas = 2;
    cc.hot_tables = 2;
    cc.placement = PlacementKind::kPlanAware;
    // Range-split the three 200k-vector paper tables.
    cc.split_min_vectors =
        static_cast<std::uint32_t>(std::lround(200'000 * sizes_.scale));
    cc.seed = opt_.seed;
    cc.store = store_config(timing);
    tier.cluster = std::make_unique<StoreCluster>(cc, plan, model_.values);
    return tier;
  }
  StoreBuilder b(store_config(timing));
  b.seed(opt_.seed);
  if (file_backed()) b.async_file_storage(path(tag + ".blocks"));
  if (w_.kind == Kind::kRetrain) b.manifest(path(tag + ".manifest"));
  b.add_plan(plan, model_.values);
  tier.store = std::make_unique<Store>(b.build());
  return tier;
}

void Bench::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  }
}

void Bench::setup(Tier& tier) {
  ThreadPool pool(threads_);
  std::vector<double> setup_s, train_s;
  std::string first_plan;
  bool identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    tier = Tier{};  // release the previous tier outside the timed window
    TrainerStats ts;
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope span(spans_, "trainer.train", -1);
      plan_ = Trainer(store_config(), trainer_config())
                  .train(model_.train, model_.sizes, &pool, {}, &ts);
    }
    tier = build(plan_, "serve");
    setup_s.push_back(seconds_since(t0));
    train_s.push_back((ts.partition_us + ts.curve_us + ts.tune_us) / 1e6);
    const std::string bytes = plan_bytes(plan_);
    if (rep == 0) first_plan = bytes;
    identical = identical && bytes == first_plan;
    std::fprintf(stderr, "[%s] set-up %d: %.3f s\n", w_.name, rep,
                 setup_s.back());
  }
  check("plans byte-identical across set-up repetitions", identical);
  if (traced()) {
    results_.set_reps("partition.train_s", train_s);
    std::vector<double> fanout;
    for (const TablePlan& t : plan_.tables) fanout.push_back(t.shp_train_fanout);
    results_.set("partition.shp_fanout", mean(fanout));
  } else {
    results_.set_reps("setup_s", setup_s);
  }
}

PacedPass Bench::paced(Tier& tier) {
  PacedPass pass;
  pass.devices = start_logs(tier, opt_.seed);
  const Verifier verify(&model_.values);
  cache_before_ = tier.table_metrics();
  serve_paced(
      tier, [&](std::size_t i) { return make_request(model_.eval, i); },
      sizes_.eval_queries, 0, verify, pass, spans_);
  cache_after_ = tier.table_metrics();
  attempted_ += pass.requests;
  failed_ += pass.failed;
  return pass;
}

PacedPass Bench::cycles(Tier& tier) {
  PacedPass pass;
  pass.devices = start_logs(tier, opt_.seed);
  const std::vector<EmbeddingTable> other = perturbed(model_.values);
  const std::vector<EmbeddingTable>* cur = &model_.values;
  const std::vector<EmbeddingTable>* prev = cur;
  RetrainerConfig rc;
  rc.trainer = trainer_config();
  rc.republish.blocks_per_interval = 256;
  rc.republish.interval_us = 100.0;
  rc.sampler.seed = opt_.seed;
  rc.min_sampled_queries = 0;  // retrain only when the schedule says so
  Verifier verify(cur);

  std::vector<double> push_s, sim_push_ms, pump_us, train_s, diff_s;
  std::vector<bool> in_push, read_only;
  double push_wall = 0.0, push_start = 0.0;
  bool pushing = false;
  std::size_t retired_max = 0;
  const std::size_t n = sizes_.cycle_requests;
  std::vector<Trace> traffic(model_.gens.size());
  const StoreMetrics m0 = tier.store_metrics();
  cache_before_ = tier.table_metrics();
  RetrainerStats final_stats;
  {
    OnlineRetrainer retrainer(
        *tier.store, rc, [&](TableId t) -> const EmbeddingTable& {
          return (*cur)[t];
        });
    const auto pump = [&](std::size_t index) {
      const auto t0 = Clock::now();
      std::size_t wrote = 0;
      {
        SpanRecorder::Scope span(spans_, "retrainer.pump",
                                 static_cast<std::int64_t>(index));
        wrote = retrainer.pump();
      }
      const double dt = seconds_since(t0);
      push_wall += dt;
      const double now = tier.store->now_us();
      if (wrote > 0) {
        pump_us.push_back(dt * 1e6);
        pass.devices[0].waves.push_back(
            {now, wrote, IoKind::kWrite, static_cast<std::int64_t>(index)});
      }
      if (!retrainer.republishing()) {
        pushing = false;
        push_s.push_back(push_wall);
        sim_push_ms.push_back((now - push_start) / 1e3);
        verify.accept({cur});
      }
    };
    for (std::size_t c = 0; c < sizes_.cycles; ++c) {
      for (std::size_t t = 0; t < traffic.size(); ++t) {
        model_.gens[t]->apply_drift(0.3, 0.1);
        traffic[t] = model_.gens[t]->generate(n);
      }
      const std::size_t base = c * n;
      const auto before = [&](std::size_t i) {
        if (i == n / 2) {
          prev = cur;
          cur = cur == &model_.values ? &other : &model_.values;
          const RetrainerStats s0 = retrainer.stats();
          const auto t0 = Clock::now();
          {
            SpanRecorder::Scope span(spans_, "retrainer.retrain_now",
                                     static_cast<std::int64_t>(base + i));
            retrainer.retrain_now();
          }
          push_wall = seconds_since(t0);
          const RetrainerStats s1 = retrainer.stats();
          train_s.push_back(static_cast<double>(s1.train_us - s0.train_us) / 1e6);
          diff_s.push_back(static_cast<double>(s1.diff_us - s0.diff_us) / 1e6);
          push_start = tier.store->now_us();
          pushing = true;
          verify.accept({prev, cur});
        }
        if (pushing) pump(base + i);
        // The push window: the tenth of the cycle that follows the retrain
        // (a push lands in a few pumps, but its write backlog drains on the
        // channels for longer); read-only windows are the first halves.
        in_push.push_back(i >= n / 2 && i < n / 2 + n / 10);
        read_only.push_back(i < n / 2);
        if (i % 64 == 0) retired_max = std::max(retired_max, tier.retired_states());
      };
      serve_paced(
          tier, [&](std::size_t i) { return make_request(traffic, i); }, n,
          base, verify, pass, spans_, before);
    }
    // A push still in flight when the schedule ends finishes unmeasured.
    while (pushing) {
      tier.advance(kInterarrivalUs);
      pump(pass.requests);
    }
    final_stats = retrainer.stats();
  }
  cache_after_ = tier.table_metrics();
  attempted_ += pass.requests;
  failed_ += pass.failed;
  check("every retrain push completed", push_s.size() == sizes_.cycles);

  if (!traced()) {
    results_.set_reps("push_s", push_s);
    results_.set_reps("sim_push_ms", sim_push_ms);
    return pass;
  }
  const StoreMetrics m1 = tier.store_metrics();
  results_.set_reps("retrain.train_s", train_s);
  results_.set_reps("retrain.diff_s", diff_s);
  results_.set("trickle.pump_us_p50", percentile(pump_us, 0.5));
  results_.set("trickle.pump_us_p99", percentile(pump_us, 0.99));
  results_.set("trickle.blocks_per_wave",
               ratio(static_cast<double>(final_stats.blocks_written),
                     static_cast<double>(final_stats.waves)));
  results_.set("trickle.batches_per_wave",
               ratio(static_cast<double>(m1.write_batches - m0.write_batches),
                     static_cast<double>(m1.write_waves - m0.write_waves)));
  results_.set("manifest.commits_per_push",
               ratio(static_cast<double>(m1.manifest_commits - m0.manifest_commits),
                     static_cast<double>(sizes_.cycles)));
  results_.set("reclaim.retired_states_max", static_cast<double>(retired_max));
  std::vector<double> during, outside;
  for (std::size_t k = 0; k < pass.sim_us.size(); ++k) {
    if (in_push[k]) during.push_back(pass.sim_us[k]);
    if (read_only[k]) outside.push_back(pass.sim_us[k]);
  }
  results_.set("trickle.read_p99_inflation",
               ratio(percentile(during, 0.99), percentile(outside, 0.99)));

  const std::optional<Manifest> m = load_manifest(path("serve.manifest"));
  check("manifest loads after the drift cycles", m.has_value());
  if (m) {
    std::vector<double> commit_ms;
    for (int k = 0; k < 20; ++k) {
      const auto t0 = Clock::now();
      SpanRecorder::Scope span(spans_, "manifest.write", -1);
      write_manifest(path("side.manifest"), *m);
      commit_ms.push_back(seconds_since(t0) * 1e3);
    }
    results_.set_reps("manifest.commit_ms", commit_ms);
  }
  return pass;
}

void Bench::run() {
  const auto t_model = Clock::now();
  model_ = make_model(sizes_, opt_.seed);
  std::fprintf(stderr, "[%s] inputs: %.3f s\n", w_.name, seconds_since(t_model));
  Tier tier;
  setup(tier);
  t_serve_ = Clock::now();
  const PacedPass pass =
      w_.kind == Kind::kRetrain ? cycles(tier) : paced(tier);
  std::fprintf(stderr, "[%s] paced phase: %.3f s (%llu requests)\n", w_.name,
               seconds_since(t_serve_),
               static_cast<unsigned long long>(pass.requests));
  if (traced()) {
    layer_probes(tier, pass);
  } else {
    results_.set("sim_p50_us", percentile(pass.sim_us, 0.5));
    results_.set("sim_p99_us", percentile(pass.sim_us, 0.99));
    tier = Tier{};
    repetitions(pass);
    const auto t0 = Clock::now();
    results_.set("sim_max_kreq_s",
                 max_rate_kreq_s(pass.devices, pass.requests));
    std::fprintf(stderr, "[%s] offered-load search: %.3f s\n", w_.name,
                 seconds_since(t0));
    results_.set("peak_rss_mib", peak_rss_mib());
  }
  if (attempted_ > 0) {
    results_.set("failed_frac", static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  }
}

void Bench::repetitions(const PacedPass& pass) {
  // Wall metrics: alternate an async closed-loop pass and a paced pass
  // over the evaluation requests, each on a freshly built tier, until the
  // time budget is spent. Repeated paced passes must reproduce the first
  // one's simulated latencies bit for bit (on retrain-drift, whose first
  // paced pass is the drift schedule, the first repeated pass's).
  //
  // Both wall metrics come from kWindowRequests-request windows of every
  // pass (the first paced pass included) and are read in the run's
  // quietest tenth of windows. On a shared VM, neighbours slow the host
  // by 20-40 % for seconds at a time, which moves the median window from
  // run to run about twice as much as the tenth-best one (README.md); a
  // faster program still lowers every window alike. Windows from passes
  // spread over the whole run see more of the host's quiet moments.
  constexpr double kQuietShare = 0.1;
  const std::size_t min_reps = opt_.smoke ? 1 : 3;
  const std::size_t max_reps = opt_.seconds > 0.0 ? 25 : 5;
  std::vector<double> kreq, window_kreq, wall_p50 = pass.window_wall_us;
  std::vector<double> reference =
      w_.kind == Kind::kRetrain ? std::vector<double>{} : pass.sim_us;
  const Verifier verify(&model_.values);
  bool deterministic = true;
  for (std::size_t rep = 0;; ++rep) {
    {
      Tier t = build(plan_, "rep");
      kreq.push_back(serve_async(t, model_.eval, sizes_.eval_queries, threads_,
                                 verify, attempted_, failed_, spans_,
                                 &window_kreq));
    }
    {
      Tier t = build(plan_, "rep");
      const PacedPass p = paced(t);
      if (reference.empty()) reference = p.sim_us;
      deterministic = deterministic && p.sim_us == reference;
      wall_p50.insert(wall_p50.end(), p.window_wall_us.begin(),
                      p.window_wall_us.end());
    }
    const std::size_t done = rep + 1;
    const bool budget_spent = opt_.seconds <= 0.0
                                  ? done >= max_reps
                                  : seconds_since(t_serve_) >= opt_.seconds;
    if (done >= max_reps || (done >= min_reps && budget_spent)) break;
  }
  check("repeated paced passes reproduce the simulated latencies",
        deterministic);
  results_.set_quantile("wall_kreq_s", window_kreq, 1.0 - kQuietShare);
  results_.set_quantile("wall_p50_us", wall_p50, kQuietShare);
  std::fprintf(stderr, "[%s] %zu async repetitions, median %.2f kreq/s\n",
               w_.name, kreq.size(), median(kreq));
}

void Bench::layer_probes(Tier& tier, const PacedPass& pass) {
  // ---- engine: replay the paced phase's device traffic. ----
  const bool exact =
      replay(pass.devices, pass.requests, 0.0) == pass.sim_us;
  if (w_.kind == Kind::kDram4 || w_.kind == Kind::kUring) {
    check("engine replay reproduces the store's simulated latencies", exact);
  }
  results_.set("engine.replay_exact", exact ? 1.0 : 0.0);
  // The timelines come from a replay at the workload's knee (the highest
  // rate meeting the p99 limit): at the nominal rate the admission gate
  // never fills, so its wait would read 0 on every workload.
  EngineProfile prof;
  const double knee = max_rate_kreq_s(pass.devices, pass.requests);
  replay(pass.devices, pass.requests, 1e3 / knee, &prof, &spans_);
  results_.set("engine.admission_wait_p99_us",
               percentile(prof.admission_wait_us, 0.99));
  results_.set("engine.queue_wait_p99_us", percentile(prof.queue_wait_us, 0.99));
  results_.set("engine.service_p50_us", percentile(prof.service_us, 0.5));
  results_.set("engine.channel_util",
               ratio(prof.busy_us, prof.span_us * pass.devices.size() > 0
                                       ? prof.span_us / pass.devices.size() *
                                             prof.channels
                                       : 0.0));
  results_.set("engine.ns_per_io",
               ratio(prof.wall_ns, static_cast<double>(prof.ios)));
  const double sim_p50 = percentile(pass.sim_us, 0.5);
  const double predicted = predicted_p50_us(pass.devices[0].device, prof.channels,
                                            pass.blocks, 1e3 / kInterarrivalUs);
  results_.set("engine.analytic_gap_frac",
               sim_p50 > 0.0 ? std::fabs(sim_p50 - predicted) / sim_p50 : 1.0);

  // ---- store and cache: the paced phase's own counters and spans. ----
  const TableMetrics& a = cache_after_;
  const TableMetrics& b = cache_before_;
  const double lookups = static_cast<double>(a.lookups - b.lookups);
  const double hits = static_cast<double>(a.hits - b.hits);
  const double nvm_bytes = static_cast<double>(a.nvm_bytes_read - b.nvm_bytes_read);
  const double miss_bytes = static_cast<double>(a.miss_bytes - b.miss_bytes);
  results_.set("cache.hit_rate", ratio(hits, lookups));
  results_.set("cache.eff_bw_frac", ratio(miss_bytes, nvm_bytes));
  results_.set("cache.prefetch_hit_frac",
               ratio(static_cast<double>(a.prefetch_hits - b.prefetch_hits),
                     static_cast<double>(a.prefetch_inserted - b.prefetch_inserted)));
  results_.set("store.blocks_per_req", mean(pass.blocks));
  const double wall_total = std::accumulate(pass.wall_us.begin(),
                                            pass.wall_us.end(), 0.0);
  results_.set("store.wall_us_per_lookup",
               ratio(wall_total, static_cast<double>(pass.lookups)));
  results_.set("store.wall_p99_us", percentile(pass.wall_us, 0.99));
  if (w_.kind != Kind::kRetrain) {
    results_.set("reclaim.retired_states_max",
                 static_cast<double>(tier.retired_states()));
  }

  // ---- storage: the paced phase's miss blocks through read_blocks. ----
  const StorageReplay st = replay_storage(tier, pass, spans_);
  results_.set("storage.wave_us_p50",
               st.wave_us.empty() ? 0.0 : percentile(st.wave_us, 0.5));
  results_.set("storage.wave_us_p99",
               st.wave_us.empty() ? 0.0 : percentile(st.wave_us, 0.99));
  results_.set("storage.blocks_per_wave",
               ratio(static_cast<double>(st.blocks),
                     static_cast<double>(st.wave_us.size())));
  results_.set("storage.read_mib_s",
               ratio(static_cast<double>(st.blocks) * 4096.0 / (1 << 20),
                     st.seconds));

  if (w_.kind == Kind::kCluster) {
    const ClusterMetrics cm = tier.cluster->metrics();
    std::vector<double> node_lookups;
    for (const TableMetrics& t : cm.per_node_tables) {
      node_lookups.push_back(static_cast<double>(t.lookups));
    }
    results_.set("router.sub_requests_per_req",
                 ratio(static_cast<double>(cm.router.sub_requests),
                       static_cast<double>(cm.router.requests)));
    results_.set("router.node_lookup_imbalance",
                 ratio(*std::max_element(node_lookups.begin(), node_lookups.end()),
                       mean(node_lookups)));
    results_.set("router.failovers", static_cast<double>(cm.router.failovers));
  }
  const double sync_kreq_s = ratio(static_cast<double>(pass.requests),
                                   wall_total / 1e6) / 1e3;
  tier = Tier{};
  router_probe();
  results_.set("store.async_speedup", ratio(async_probes(), sync_kreq_s));
}

void Bench::router_probe() {
  // router.overhead_us: a 1-node StoreCluster against a bare Store built
  // from the same plan, backend and seed, serving the same requests
  // interleaved one by one (so host drift hits both alike). A 1-node
  // cluster returns what the bare store returns; the difference in per-
  // call wall time is the router's own scatter/merge cost.
  StoreConfig cfg = store_config();
  StoreBuilder b(cfg);
  b.seed(opt_.seed);
  if (file_backed()) b.async_file_storage(path("cmp-bare.blocks"));
  b.add_plan(plan_, model_.values);
  Store bare = b.build();
  ClusterConfig cc;
  cc.seed = opt_.seed;
  cc.store = cfg;
  StoreCluster one(cc, plan_, model_.values,
                   file_backed() ? async_file_storage_factory(path("cmp-node.blocks"))
                                 : BlockStorageFactory{});
  const Verifier verify(&model_.values);
  std::vector<double> bare_us, cluster_us;
  for (std::size_t q = 0; q < sizes_.router_requests; ++q) {
    const MultiGetRequest req = make_request(model_.eval, q);
    bare.advance_time_us(kInterarrivalUs);
    one.advance_time_us(kInterarrivalUs);
    auto t0 = Clock::now();
    const MultiGetResult rb = bare.multi_get(req);
    bare_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const ClusterMultiGetResult rc = one.router().multi_get(req);
    cluster_us.push_back(seconds_since(t0) * 1e6);
    attempted_ += 2;
    if (verify.wrong(req, rb) > 0) ++failed_;
    if (rc.failed_lookups > 0 || verify.wrong(req, rc.result) > 0 ||
        rc.result.service_latency_us != rb.service_latency_us) {
      ++failed_;
    }
  }
  results_.set("router.overhead_us",
               percentile(cluster_us, 0.5) - percentile(bare_us, 0.5));
  if (w_.kind != Kind::kCluster) {
    const ClusterMetrics cm = one.metrics();
    results_.set("router.sub_requests_per_req",
                 ratio(static_cast<double>(cm.router.sub_requests),
                       static_cast<double>(cm.router.requests)));
    results_.set("router.node_lookup_imbalance", 1.0);
    results_.set("router.failovers", static_cast<double>(cm.router.failovers));
  }
}

double Bench::async_probes() {
  // Async closed-loop passes on fresh tiers, interleaved: timing model on
  // (untraced and traced) and off. They give the staging counters under
  // concurrency, store.timing_cost_frac and trace.overhead_frac.
  const Verifier verify(&model_.values);
  std::vector<double> on, traced_on, off;
  StoreMetrics staging;
  const std::size_t n = sizes_.eval_queries;
  for (int rep = 0; rep < 2; ++rep) {
    for (int mode = 0; mode < 3; ++mode) {
      Tier t = build(plan_, "rep", /*timing=*/mode != 2);
      const StoreMetrics m0 = t.store_metrics();
      spans_.set_enabled(mode == 1);
      const double kreq =
          serve_async(t, model_.eval, n, threads_, verify, attempted_, failed_, spans_);
      spans_.set_enabled(true);
      (mode == 0 ? on : mode == 1 ? traced_on : off).push_back(kreq);
      if (mode == 0) {
        const StoreMetrics m1 = t.store_metrics();
        staging.deferred_lookups += m1.deferred_lookups - m0.deferred_lookups;
        staging.retry_waves += m1.retry_waves - m0.retry_waves;
        staging.stage_truncated_blocks +=
            m1.stage_truncated_blocks - m0.stage_truncated_blocks;
      }
    }
  }
  const double reqs = 2.0 * static_cast<double>(n);
  results_.set("staging.deferred_per_req",
               static_cast<double>(staging.deferred_lookups) / reqs);
  results_.set("staging.retry_waves_per_req",
               static_cast<double>(staging.retry_waves) / reqs);
  results_.set("staging.truncated_blocks",
               static_cast<double>(staging.stage_truncated_blocks));
  results_.set("store.timing_cost_frac", 1.0 - median(on) / median(off));
  results_.set("trace.overhead_frac", 1.0 - median(traced_on) / median(on));
  return median(on);
}

}  // namespace perf
