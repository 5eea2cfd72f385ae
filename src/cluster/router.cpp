#include "cluster/router.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace bandana {

ClusterRouter::ClusterRouter(StoreCluster& cluster) : cluster_(cluster) {
  // Rebalance flips re-point a range's replica but never change range
  // boundaries or counts, so the flat rotation state sized here stays
  // valid across every later placement map.
  range_offset_.reserve(cluster_.placement().tables.size());
  for (const auto& ranges : cluster_.placement().tables) {
    range_offset_.push_back(num_ranges_);
    num_ranges_ += ranges.size();
  }
  rr_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      std::max<std::size_t>(1, num_ranges_));
  for (std::size_t i = 0; i < num_ranges_; ++i) {
    rr_[i].store(0, std::memory_order_relaxed);
  }
}

std::int32_t ClusterRouter::pick_replica(TableId t, std::size_t range_idx,
                                         const PlacementMap::Range& range,
                                         bool& failover) {
  failover = false;
  const std::uint32_t r = range.replicas();
  // The rotation ticket advances per routing decision (across requests);
  // within one request the caller caches the choice per (table, range),
  // which is what keeps a request's repeated keys on one node.
  const std::uint64_t ticket = rr_[range_offset_[t] + range_idx].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint32_t start = static_cast<std::uint32_t>(ticket % r);

  // The balancer's preferred pick, liveness ignored: round-robin takes the
  // rotation slot; least-outstanding takes the replica whose node carries
  // the fewest router-outstanding sub-requests (ties resolved in rotation
  // order, so idle replicas still alternate).
  std::uint32_t pref = start;
  if (cluster_.cfg_.read_balance == ReadBalance::kLeastOutstanding) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t i = 0; i < r; ++i) {
      const std::uint32_t k = (start + i) % r;
      const std::uint64_t out =
          cluster_.nodes_[range.nodes[k]]->outstanding.load(
              std::memory_order_relaxed);
      if (out < best) {
        best = out;
        pref = k;
      }
    }
  }
  // Serve from the preferred replica, or fail over to the next alive one.
  for (std::uint32_t i = 0; i < r; ++i) {
    const std::uint32_t k = (pref + i) % r;
    const std::uint32_t n = range.nodes[k];
    if (!cluster_.nodes_[n]->down.load(std::memory_order_acquire)) {
      failover = i > 0;
      return static_cast<std::int32_t>(n);
    }
  }
  return kNoReplica;
}

ClusterRouter::Route ClusterRouter::route(const PlacementMap& pm,
                                          const MultiGetRequest& request) {
  // Validate the whole request before routing mutates anything (the
  // Store::multi_get contract: throw before any part is served).
  for (const auto& get : request.gets) {
    if (get.table >= cluster_.num_tables()) {
      throw std::out_of_range("cluster multi_get: bad table id " +
                              std::to_string(get.table));
    }
    const std::uint32_t nv = cluster_.table_vectors_[get.table];
    for (const VectorId v : get.ids) {
      if (v >= nv) {
        throw std::out_of_range("cluster multi_get: bad vector id " +
                                std::to_string(v) + " for table " +
                                std::to_string(get.table));
      }
    }
  }

  Route rt;
  rt.node_of.assign(num_ranges_, kUntouched);
  std::vector<std::uint8_t> contacted(cluster_.num_nodes(), 0);
  for (const auto& get : request.gets) {
    const auto& ranges = pm.tables[get.table];
    const std::size_t base = range_offset_[get.table];
    // Replica choice per (table, range), made once per request at the
    // range's first touch.
    const auto touch = [&](std::size_t ri) {
      std::int32_t& node = rt.node_of[base + ri];
      if (node != kUntouched) return;
      bool failover = false;
      node = pick_replica(get.table, ri, ranges[ri], failover);
      if (failover) ++rt.failovers;
      if (node == kNoReplica) {
        ++rt.failed_sub_requests;  // counted once per range
      } else if (!contacted[static_cast<std::size_t>(node)]) {
        contacted[static_cast<std::size_t>(node)] = 1;
        rt.nodes.push_back(static_cast<std::uint32_t>(node));
      }
    };
    if (ranges.size() == 1) {
      if (!get.ids.empty()) touch(0);
      continue;
    }
    for (const VectorId v : get.ids) touch(pm.range_index_of(get.table, v));
  }
  return rt;
}

ClusterRouter::Scatter ClusterRouter::bucket(const PlacementMap& pm,
                                             const MultiGetRequest& request,
                                             const Route& rt) const {
  Scatter sc;
  sc.failed_sub_requests = rt.failed_sub_requests;
  sc.failovers = rt.failovers;
  // One sub-request per contacted node: the node-local Store dedups block
  // reads across its whole sub-request.
  std::vector<std::int32_t> node_sub(cluster_.num_nodes(), -1);
  sc.subs.resize(rt.nodes.size());
  for (std::size_t s = 0; s < rt.nodes.size(); ++s) {
    sc.subs[s].node = rt.nodes[s];
    node_sub[rt.nodes[s]] = static_cast<std::int32_t>(s);
  }
  std::size_t total_ids = 0;
  for (const auto& get : request.gets) total_ids += get.ids.size();
  sc.slots.resize(total_ids);

  // Scratch for one get: each id's range, and per range of the get's
  // table its id count and the slot its next id lands in (sub < 0: no
  // alive replica, the range's ids are zero-filled at merge).
  std::vector<std::uint32_t> range_of_id;
  std::vector<std::uint32_t> range_ids;
  std::vector<IdSlot> range_next;
  std::size_t k = 0;  // sc.slots index of the get's first id
  for (std::size_t g = 0; g < request.gets.size(); ++g) {
    const auto& get = request.gets[g];
    const auto& ranges = pm.tables[get.table];
    const std::size_t base = range_offset_[get.table];
    range_of_id.resize(get.ids.size());
    range_ids.assign(ranges.size(), 0);
    range_next.assign(ranges.size(), IdSlot{});

    // Pass 1: count ids per range, and open an entry per served range in
    // first-touch order. Each original get maps to its own entries, so the
    // merged result keeps the request's shape.
    for (std::size_t i = 0; i < get.ids.size(); ++i) {
      const std::uint32_t ri =
          ranges.size() == 1 ? 0
                             : static_cast<std::uint32_t>(
                                   pm.range_index_of(get.table, get.ids[i]));
      range_of_id[i] = ri;
      if (range_ids[ri]++ > 0) continue;
      const std::int32_t node = rt.node_of[base + ri];
      if (node == kNoReplica) continue;
      const PlacementMap::Range& range = ranges[ri];
      const auto rep = std::find(range.nodes.begin(), range.nodes.end(),
                                 static_cast<std::uint32_t>(node)) -
                       range.nodes.begin();
      const std::int32_t s = node_sub[static_cast<std::size_t>(node)];
      SubRequest& sub = sc.subs[static_cast<std::size_t>(s)];
      range_next[ri] = {s, static_cast<std::uint32_t>(sub.req.gets.size()), 0};
      sub.req.gets.push_back(
          {range.local_ids[static_cast<std::size_t>(rep)], {}});
      sub.entry_get.push_back(g);
    }
    for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
      const IdSlot& next = range_next[ri];
      if (next.sub < 0) continue;
      sc.subs[static_cast<std::size_t>(next.sub)]
          .req.gets[next.entry]
          .ids.reserve(range_ids[ri]);
    }

    // Pass 2: place every id.
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < get.ids.size(); ++i, ++k) {
      const std::uint32_t ri = range_of_id[i];
      IdSlot& next = range_next[ri];
      if (next.sub < 0) {
        ++lost;
        continue;
      }
      sc.slots[k] = next;
      ++next.offset;
      sc.subs[static_cast<std::size_t>(next.sub)]
          .req.gets[next.entry]
          .ids.push_back(get.ids[i] - ranges[ri].lo);
    }
    sc.failed_lookups += lost;
  }
  return sc;
}

ClusterMultiGetResult ClusterRouter::merge(
    const MultiGetRequest& request, Scatter&& sc,
    std::vector<MultiGetResult>&& sub_results) {
  const std::size_t vb = cluster_.cfg_.store.vector_bytes;
  ClusterMultiGetResult out;
  out.sub_requests = sc.subs.size();
  out.failed_sub_requests = sc.failed_sub_requests;
  out.failed_lookups = sc.failed_lookups;
  out.failovers = sc.failovers;

  MultiGetResult& res = out.result;
  res.vectors.resize(request.gets.size());
  res.per_table.resize(request.gets.size());

  for (std::size_t s = 0; s < sc.subs.size(); ++s) {
    const MultiGetResult& sub_res = sub_results[s];
    // A degraded node inflates its sub-request's service latency; the
    // merged request completes with its slowest sub-request, so one slow
    // node drags the whole request's tail.
    const double scaled = sub_res.service_latency_us *
                          cluster_.node_degrade(sc.subs[s].node);
    res.service_latency_us = std::max(res.service_latency_us, scaled);
    res.block_reads += sub_res.block_reads;
    for (std::size_t e = 0; e < sub_res.per_table.size(); ++e) {
      auto& stats = res.per_table[sc.subs[s].entry_get[e]];
      stats.hits += sub_res.per_table[e].hits;
      stats.block_reads += sub_res.per_table[e].block_reads;
    }
  }
  std::size_t k = 0;  // sc.slots index of the get's first id
  for (std::size_t g = 0; g < request.gets.size(); ++g) {
    const std::size_t n = request.gets[g].ids.size();
    // Append runs of ids that sit back to back in one entry with one copy
    // each (a get one entry serves whole is a single run). Only ids lost
    // to a down node are zero-filled, so they keep deterministic bytes.
    auto& bytes = res.vectors[g];
    bytes.reserve(n * vb);
    for (std::size_t i = 0; i < n;) {
      const IdSlot& slot = sc.slots[k + i];
      std::size_t run = 1;
      if (slot.sub < 0) {
        while (i + run < n && sc.slots[k + i + run].sub < 0) ++run;
        bytes.insert(bytes.end(), run * vb, std::byte{0});
      } else {
        while (i + run < n) {
          const IdSlot& next = sc.slots[k + i + run];
          if (next.sub != slot.sub || next.entry != slot.entry ||
              next.offset != slot.offset + run) {
            break;
          }
          ++run;
        }
        const std::byte* src =
            sub_results[static_cast<std::size_t>(slot.sub)]
                .vectors[slot.entry]
                .data() +
            std::size_t{slot.offset} * vb;
        bytes.insert(bytes.end(), src, src + run * vb);
      }
      i += run;
    }
    k += n;
    // Lost ids count as misses: they were not served from DRAM (the
    // failed_lookups counter is the authoritative loss report).
    res.per_table[g].misses = n - res.per_table[g].hits;
  }
  return out;
}

namespace {
void bump(std::atomic<std::uint64_t>& c, std::uint64_t v) {
  if (v) c.fetch_add(v, std::memory_order_relaxed);
}
}  // namespace

void ClusterRouter::settle(const ClusterMultiGetResult& out) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  bump(sub_requests_, out.sub_requests);
  bump(failed_sub_requests_, out.failed_sub_requests);
  bump(failed_lookups_, out.failed_lookups);
  bump(failovers_, out.failovers);
  std::lock_guard lock(latency_mu_);
  request_latency_.add(out.result.service_latency_us);
}

ClusterMultiGetResult ClusterRouter::multi_get(const MultiGetRequest& request) {
  // One lease for the whole request: route and serve against the same map,
  // released only after the last sub-request finished (see router.h).
  const StoreCluster::PlacementLease lease = cluster_.placement_lease();
  Scatter sc = bucket(lease.map(), request, route(lease.map(), request));
  std::vector<MultiGetResult> sub_results(sc.subs.size());
  for (std::size_t s = 0; s < sc.subs.size(); ++s) {
    auto& node = *cluster_.nodes_[sc.subs[s].node];
    node.outstanding.fetch_add(1, std::memory_order_relaxed);
    try {
      sub_results[s] = node.store->multi_get(sc.subs[s].req);
    } catch (...) {
      // Decrement on EVERY completion path: a throwing sub-request must
      // not ratchet the least-outstanding count, or the node looks ever
      // busier and is never picked again once healthy.
      node.outstanding.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    node.outstanding.fetch_sub(1, std::memory_order_relaxed);
  }
  ClusterMultiGetResult out =
      merge(request, std::move(sc), std::move(sub_results));
  settle(out);
  return out;
}

std::future<ClusterMultiGetResult> ClusterRouter::multi_get_async(
    MultiGetRequest request, ThreadPool& pool) {
  struct AsyncState {
    MultiGetRequest request;
    /// Held until the state dies — i.e. until the last sub-task finished —
    /// so a concurrent rebalance flip waits for this request before
    /// retiring the donor replicas it routed to.
    StoreCluster::PlacementLease lease;
    Route rt;
    Scatter sc;
    std::vector<MultiGetResult> sub_results;
    std::vector<double> arrivals;
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mu;
    std::exception_ptr error;
    std::promise<ClusterMultiGetResult> promise;
  };
  auto state = std::make_shared<AsyncState>();
  state->request = std::move(request);
  state->lease = cluster_.placement_lease();
  // Bad requests throw here, inline.
  state->rt = route(state->lease.map(), state->request);
  auto future = state->promise.get_future();

  const auto finish = [this, state] {
    {
      std::lock_guard lock(state->error_mu);
      if (state->error) {
        state->promise.set_exception(state->error);
        return;
      }
    }
    ClusterMultiGetResult out =
        merge(state->request, std::move(state->sc),
              std::move(state->sub_results));
    settle(out);
    state->promise.set_value(std::move(out));
  };
  const auto fail = [state] {
    std::lock_guard lock(state->error_mu);
    if (!state->error) state->error = std::current_exception();
  };
  const std::size_t n_subs = state->rt.nodes.size();
  if (n_subs == 0) {
    // Nothing routable (empty request, or everything down): settle now.
    state->sc = bucket(state->lease.map(), state->request, state->rt);
    finish();
    return future;
  }

  state->sub_results.resize(n_subs);
  state->arrivals.resize(n_subs);
  state->remaining.store(n_subs, std::memory_order_relaxed);
  for (std::size_t s = 0; s < n_subs; ++s) {
    auto& node = *cluster_.nodes_[state->rt.nodes[s]];
    // Arrival stamped at submission (each node's own clock), and the
    // outstanding count raised before the task queues — a concurrent
    // least-outstanding pick must see queued-but-unserved work.
    state->arrivals[s] = node.store->now_us();
    node.outstanding.fetch_add(1, std::memory_order_relaxed);
  }
  // Tasks call the node store synchronously and count down; the last one
  // merges. No task ever waits on another, so any pool size progresses.
  const auto serve = [this, state, finish, fail](std::size_t s) {
    auto& node = *cluster_.nodes_[state->rt.nodes[s]];
    try {
      state->sub_results[s] =
          node.store->multi_get(state->sc.subs[s].req, state->arrivals[s]);
    } catch (...) {
      fail();
    }
    node.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish();
    }
  };
  pool.submit([this, state, serve, finish, fail, &pool] {
    try {
      state->sc = bucket(state->lease.map(), state->request, state->rt);
    } catch (...) {
      // Nothing was served: drop the outstanding counts and fail the
      // request.
      fail();
      for (const std::uint32_t n : state->rt.nodes) {
        cluster_.nodes_[n]->outstanding.fetch_sub(1,
                                                  std::memory_order_relaxed);
      }
      finish();
      return;
    }
    for (std::size_t s = 1; s < state->rt.nodes.size(); ++s) {
      pool.submit([serve, s] { serve(s); });
    }
    serve(0);
  });
  return future;
}

RouterMetrics ClusterRouter::metrics() const {
  RouterMetrics m;
  m.requests = requests_.load(std::memory_order_relaxed);
  m.sub_requests = sub_requests_.load(std::memory_order_relaxed);
  m.failed_sub_requests =
      failed_sub_requests_.load(std::memory_order_relaxed);
  m.failed_lookups = failed_lookups_.load(std::memory_order_relaxed);
  m.failovers = failovers_.load(std::memory_order_relaxed);
  return m;
}

LatencyRecorder ClusterRouter::request_latency_us() const {
  std::lock_guard lock(latency_mu_);
  return request_latency_;
}

}  // namespace bandana
