#include "partition/shp.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "partition/coaccess.h"

namespace bandana {

namespace {

/// A bucket: the slice [begin, end) of its table's order, at `depth` in the
/// bisection tree (the root is depth 1).
struct Bucket {
  std::uint32_t begin, end, depth;
};

/// Refinement scratch of one running bucket, reused across buckets and
/// tables. Built on the calling thread at the size of the largest table,
/// so a worker never grows it. Side counts are bucket-local: q_epoch marks
/// the queries the current bucket counted, so nothing is cleared between
/// buckets, and any table's queries index it.
struct Scratch {
  Scratch(std::uint32_t num_queries, std::size_t side_cap)
      : cnt_a(num_queries, 0), cnt_b(num_queries, 0), q_epoch(num_queries, 0) {
    cand_a.reserve(side_cap);
    cand_b.reserve(side_cap);
    spill.reserve(side_cap);
  }
  std::uint64_t byte_size() const {
    return (cnt_a.capacity() + cnt_b.capacity() + q_epoch.capacity()) *
               sizeof(std::uint32_t) +
           (cand_a.capacity() + cand_b.capacity()) * sizeof(cand_a[0]) +
           spill.capacity() * sizeof(VectorId);
  }
  std::vector<std::uint32_t> cnt_a;
  std::vector<std::uint32_t> cnt_b;
  std::vector<std::uint32_t> q_epoch;
  std::uint32_t epoch = 0;
  std::vector<std::pair<std::int32_t, VectorId>> cand_a;
  std::vector<std::pair<std::int32_t, VectorId>> cand_b;
  std::vector<VectorId> spill;  ///< Side-1 vertices while partitioning.
};

/// Split so the left child always holds a whole number of blocks: final
/// buckets then coincide exactly with physical block boundaries. Neither
/// side of a bucket of n vectors is larger than aligned_half(n).
std::uint32_t aligned_half(std::uint32_t n, std::uint32_t vpb) {
  const std::uint32_t blocks = (n + vpb - 1) / vpb;
  return std::min(n, ((blocks + 1) / 2) * vpb);
}

/// Refine one bucket, `verts`, into two halves of sizes (half, n - half)
/// and return the swaps made. `half` is block-aligned by
/// the caller so that final buckets coincide with physical blocks.
std::uint64_t refine_bucket(std::span<VectorId> verts, std::size_t half,
                            const CoAccessGraph& h,
                            std::vector<std::uint8_t>& side, Scratch& scratch,
                            std::uint32_t iters, double max_swap_fraction,
                            std::uint64_t seed) {
  const std::size_t n = verts.size();
  // Deterministic shuffle, then first `half` -> side 0, rest -> side 1.
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(verts[i - 1], verts[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < n; ++i) side[verts[i]] = i >= half;

  // Bucket-local per-query side counts: counted once here, then kept
  // current as each pair swaps.
  ++scratch.epoch;
  for (VectorId v : verts) {
    const std::uint8_t s = side[v];
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      const std::uint32_t q = h.v_queries[i];
      if (scratch.q_epoch[q] != scratch.epoch) {
        scratch.q_epoch[q] = scratch.epoch;
        scratch.cnt_a[q] = 0;
        scratch.cnt_b[q] = 0;
      }
      ++(s == 0 ? scratch.cnt_a[q] : scratch.cnt_b[q]);
    }
  }
  auto flip_side = [&](VectorId v) {
    const bool to_b = side[v] == 0;
    side[v] = to_b;
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      const std::uint32_t q = h.v_queries[i];
      --(to_b ? scratch.cnt_a[q] : scratch.cnt_b[q]);
      ++(to_b ? scratch.cnt_b[q] : scratch.cnt_a[q]);
    }
  };
  auto gain_of = [&](VectorId v) {
    std::int32_t gain = 0;
    const std::uint8_t s = side[v];
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      const std::uint32_t q = h.v_queries[i];
      const std::uint32_t here = s == 0 ? scratch.cnt_a[q] : scratch.cnt_b[q];
      const std::uint32_t there = s == 0 ? scratch.cnt_b[q] : scratch.cnt_a[q];
      if (here == 1) ++gain;   // this side stops touching q
      if (there == 0) --gain;  // other side starts touching q
    }
    return gain;
  };
  // The first k of a candidate list in descending order. (gain, id) pairs
  // are distinct, so these are exactly the first k of a full sort.
  auto desc = [](const auto& x, const auto& y) { return x > y; };
  auto top = [&](auto& cand, std::size_t k) {
    std::nth_element(cand.begin(), cand.begin() + k, cand.end(), desc);
    std::sort(cand.begin(), cand.begin() + k, desc);
  };
  const std::size_t cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(max_swap_fraction *
                                  static_cast<double>(n / 2)));

  std::uint64_t swaps = 0;
  for (std::uint32_t iter = 0; iter < iters; ++iter) {
    // Gains come from the counts at the start of the pass.
    scratch.cand_a.clear();
    scratch.cand_b.clear();
    for (VectorId v : verts) {
      (side[v] == 0 ? scratch.cand_a : scratch.cand_b)
          .emplace_back(gain_of(v), v);
    }
    // Pairwise swap of the highest-gain vertices from each side.
    const std::size_t pairs =
        std::min({scratch.cand_a.size(), scratch.cand_b.size(), cap});
    top(scratch.cand_a, pairs);
    top(scratch.cand_b, pairs);
    std::uint64_t swapped = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      if (scratch.cand_a[i].first + scratch.cand_b[i].first <= 0) break;
      flip_side(scratch.cand_a[i].second);
      flip_side(scratch.cand_b[i].second);
      ++swapped;
    }
    swaps += swapped;
    if (swapped == 0) break;
  }

  // Physically partition the range by side, stably (std::stable_partition
  // would allocate its buffer here, on the worker).
  scratch.spill.clear();
  std::size_t kept = 0;
  for (VectorId v : verts) {
    if (side[v] == 0) {
      verts[kept++] = v;
    } else {
      scratch.spill.push_back(v);
    }
  }
  std::copy(scratch.spill.begin(), scratch.spill.end(), verts.begin() + kept);
  return swaps;
}

/// One table from admission until its last bucket finishes. The calling
/// thread builds it and frees it; bucket tasks only refine slices of
/// `out.order` and `side` and bump the counters.
struct Job {
  const ShpTable* in = nullptr;
  ShpResult* out = nullptr;
  CoAccessGraph h;
  std::vector<std::uint8_t> side;
  std::uint64_t bytes = 0;  ///< This table's share of peak_memory_bytes.
  std::atomic<std::size_t> pending{0};  ///< Buckets submitted, unfinished.
  std::atomic<std::uint64_t> swaps{0};
  std::atomic<std::uint32_t> levels{0};
};

/// Build table `in`'s graph and arrays into `out`, and its initial fanout.
std::unique_ptr<Job> admit(const ShpTable& in, ShpResult& out) {
  auto job = std::make_unique<Job>();
  job->in = &in;
  job->out = &out;
  const std::uint32_t n = in.num_vectors;
  const ShpConfig& config = in.config;
  job->h = build_coaccess(*in.train, n, config.max_query_size);
  out.access_counts.resize(n);
  for (VectorId v = 0; v < n; ++v) out.access_counts[v] = job->h.degree(v);
  // Vertex order array; buckets are [begin, end) slices of it.
  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), 0);
  job->side.assign(n, 0);
  {
    // Initial fanout: seeded random order (what "no partitioning" gives).
    Rng rng(config.seed ^ 0xF00DULL);
    std::vector<VectorId> shuffled = out.order;
    for (std::uint32_t i = n; i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    std::vector<std::uint32_t> block_of(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      block_of[shuffled[i]] = i / config.vectors_per_block;
    }
    out.initial_avg_fanout = coaccess_fanout(
        job->h, block_of,
        (n + config.vectors_per_block - 1) / config.vectors_per_block);
  }
  // The trace, the CSR both directions, and the order, counts, side and
  // block_of arrays.
  job->bytes = trace_byte_size(*in.train) + job->h.byte_size() +
               std::uint64_t{n} * (4 + 4 + 1 + 4);
  return job;
}

/// Refine bucket `b` of `job`, then hand each half still larger than a
/// block to `spawn`. Each bucket is seeded by its depth and range start,
/// so the plan does not depend on which thread ran which bucket or when.
template <typename Spawn>
void run_bucket(Job& job, Bucket b, Scratch& scratch, Spawn&& spawn) {
  const ShpConfig& config = job.in->config;
  const std::uint32_t vpb = config.vectors_per_block;
  const std::uint32_t half = aligned_half(b.end - b.begin, vpb);
  job.swaps.fetch_add(
      refine_bucket(
          std::span<VectorId>(job.out->order.data() + b.begin, b.end - b.begin),
          half, job.h, job.side, scratch, config.iters_per_level,
          config.max_swap_fraction,
          splitmix64(config.seed ^ (std::uint64_t{b.depth} << 32) ^ b.begin)),
      std::memory_order_relaxed);
  std::uint32_t levels = job.levels.load(std::memory_order_relaxed);
  while (levels < b.depth &&
         !job.levels.compare_exchange_weak(levels, b.depth,
                                           std::memory_order_relaxed)) {
  }
  for (const Bucket c : {Bucket{b.begin, b.begin + half, b.depth + 1},
                         Bucket{b.begin + half, b.end, b.depth + 1}}) {
    if (c.end - c.begin > vpb) spawn(c);
  }
}

/// Final fanout and totals of a table whose last bucket finished.
void finish(Job& job) {
  ShpResult& out = *job.out;
  const std::uint32_t n = job.in->num_vectors;
  const std::uint32_t vpb = job.in->config.vectors_per_block;
  out.levels = job.levels.load(std::memory_order_relaxed);
  out.total_swaps = job.swaps.load(std::memory_order_relaxed);
  std::vector<std::uint32_t> block_of(n);
  for (std::uint32_t i = 0; i < n; ++i) block_of[out.order[i]] = i / vpb;
  out.final_avg_fanout = coaccess_fanout(job.h, block_of, (n + vpb - 1) / vpb);
}

/// The tables in flight, owned by the calling thread, and the bytes they
/// and the shared scratch hold. Each table's peak_memory_bytes is the
/// largest total seen while it was in flight.
class InFlight {
 public:
  InFlight(std::size_t max_jobs, std::uint64_t scratch_bytes)
      : bytes_(scratch_bytes) {
    jobs_.reserve(max_jobs);
  }
  std::size_t size() const { return jobs_.size(); }
  void add(std::unique_ptr<Job> job) {
    bytes_ += job->bytes;
    jobs_.push_back(std::move(job));
    for (const auto& j : jobs_) {
      j->out->peak_memory_bytes = std::max(j->out->peak_memory_bytes, bytes_);
    }
  }
  /// Frees a finished table's graph and side array.
  void remove(const Job* job) {
    bytes_ -= job->bytes;
    std::erase_if(jobs_, [job](const auto& j) { return j.get() == job; });
  }

 private:
  std::vector<std::unique_ptr<Job>> jobs_;
  std::uint64_t bytes_;
};

/// No pool: each table in turn, its buckets depth first on this thread.
void train_sequential(std::span<const ShpTable> tables,
                      std::vector<ShpResult>& results, Scratch& scratch) {
  InFlight in_flight(1, scratch.byte_size());
  std::vector<Bucket> stack;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    std::unique_ptr<Job> owned = admit(tables[t], results[t]);
    Job& job = *owned;
    in_flight.add(std::move(owned));
    stack.push_back({0, tables[t].num_vectors, 1});
    while (!stack.empty()) {
      const Bucket b = stack.back();
      stack.pop_back();
      run_bucket(job, b, scratch, [&](Bucket c) { stack.push_back(c); });
    }
    finish(job);
    in_flight.remove(&job);
  }
}

/// With a pool: every bucket is a pool task that submits its children, so
/// one table's narrow top levels overlap other tables' refinement. This
/// thread admits tables largest first, at most one per worker in flight,
/// and finishes each once its last bucket is done.
class ParallelRun {
 public:
  ParallelRun(std::span<const ShpTable> tables,
              std::vector<ShpResult>& results, ThreadPool& pool,
              std::uint32_t max_queries, std::size_t side_cap)
      : tables_(tables), results_(results), pool_(pool) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      idle_scratch_.push_back(std::make_unique<Scratch>(max_queries, side_cap));
    }
  }

  void run() {
    std::uint64_t scratch_bytes = 0;
    for (const auto& s : idle_scratch_) scratch_bytes += s->byte_size();
    InFlight in_flight(pool_.size(), scratch_bytes);
    std::vector<std::size_t> by_size(tables_.size());
    std::iota(by_size.begin(), by_size.end(), 0);
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tables_[a].num_vectors > tables_[b].num_vectors;
                     });
    std::size_t next = 0;
    bool failed = false;
    for (;;) {
      std::vector<Job*> done;
      {
        std::unique_lock lock(mu_);
        failed = failed || error_ != nullptr;
        const bool can_admit = !failed && next < by_size.size() &&
                               in_flight.size() < pool_.size();
        if (!can_admit && in_flight.size() > 0) {
          cv_.wait(lock, [this] { return !finished_.empty(); });
        }
        done.swap(finished_);
      }
      for (Job* job : done) {
        try {
          finish(*job);
        } catch (...) {
          fail(std::current_exception());
          failed = true;
        }
        in_flight.remove(job);
      }
      if (!failed && next < by_size.size() &&
          in_flight.size() < pool_.size()) {
        const std::size_t t = by_size[next++];
        try {
          std::unique_ptr<Job> job = admit(tables_[t], results_[t]);
          spawn(*job, {0, tables_[t].num_vectors, 1});
          in_flight.add(std::move(job));
        } catch (...) {
          // Nothing of this table is in flight: its root never started.
          fail(std::current_exception());
          failed = true;
        }
      } else if (in_flight.size() == 0) {
        break;
      }
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void spawn(Job& job, Bucket b) {
    job.pending.fetch_add(1, std::memory_order_relaxed);
    try {
      pool_.submit([this, &job, b] { task(job, b); });
    } catch (...) {
      job.pending.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
  }

  void task(Job& job, Bucket b) {
    std::unique_ptr<Scratch> scratch;
    {
      std::lock_guard lock(scratch_mu_);
      scratch = std::move(idle_scratch_.back());
      idle_scratch_.pop_back();
    }
    try {
      run_bucket(job, b, *scratch, [&](Bucket c) { spawn(job, c); });
    } catch (...) {
      fail(std::current_exception());
    }
    {
      std::lock_guard lock(scratch_mu_);
      idle_scratch_.push_back(std::move(scratch));
    }
    // The last bucket hands the table back. acq_rel orders every bucket's
    // writes to the order and side arrays before the caller reads them.
    if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(mu_);
      finished_.push_back(&job);
      cv_.notify_one();
    }
  }

  void fail(std::exception_ptr e) {
    std::lock_guard lock(mu_);
    if (!error_) error_ = std::move(e);
  }

  std::span<const ShpTable> tables_;
  std::vector<ShpResult>& results_;
  ThreadPool& pool_;
  // At most pool.size() buckets run at once, so that many scratches
  // suffice; a bucket borrows one and hands it back.
  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<Scratch>> idle_scratch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Job*> finished_;  ///< Tables whose last bucket finished.
  std::exception_ptr error_;    ///< First failure of any bucket or table.
};

}  // namespace

void validate(const ShpConfig& config) {
  if (config.vectors_per_block == 0) {
    throw std::invalid_argument("ShpConfig: vectors_per_block must be > 0");
  }
  if (config.iters_per_level == 0) {
    throw std::invalid_argument("ShpConfig: iters_per_level must be > 0");
  }
  if (!(config.max_swap_fraction > 0.0) || config.max_swap_fraction > 1.0) {
    throw std::invalid_argument(
        "ShpConfig: max_swap_fraction must be in (0, 1]");
  }
}

std::vector<ShpResult> run_shp(std::span<const ShpTable> tables,
                               ThreadPool* pool) {
  std::uint32_t max_queries = 0;
  std::size_t side_cap = 0;
  for (const ShpTable& t : tables) {
    validate(t.config);
    if (t.train == nullptr || t.train->num_queries() == 0) {
      throw std::invalid_argument("run_shp: empty training trace");
    }
    max_queries = std::max(max_queries,
                           static_cast<std::uint32_t>(t.train->num_queries()));
    side_cap = std::max<std::size_t>(
        side_cap, aligned_half(t.num_vectors, t.config.vectors_per_block));
  }
  std::vector<ShpResult> results(tables.size());
  if (pool && pool->size() > 1) {
    ParallelRun(tables, results, *pool, max_queries, side_cap).run();
  } else {
    Scratch scratch(max_queries, side_cap);
    train_sequential(tables, results, scratch);
  }
  return results;
}

ShpResult run_shp(const Trace& train, std::uint32_t num_vectors,
                  const ShpConfig& config, ThreadPool* pool) {
  const ShpTable table{&train, num_vectors, config};
  return std::move(run_shp(std::span(&table, 1), pool).front());
}

}  // namespace bandana
