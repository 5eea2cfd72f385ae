#include "partition/shp.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "partition/coaccess.h"

namespace bandana {

namespace {

/// A bucket: the slice [begin, end) of its table's order, at `depth` in the
/// bisection tree (the root is depth 1).
struct Bucket {
  std::uint32_t begin, end, depth;
};

/// Two counts, one per side, in one 8-byte entry: [0] counts side 0 (the
/// first half), [1] side 1.
using PerSide = std::array<std::uint32_t, 2>;

/// The largest of every table's training queries, vectors and vertex
/// degree: what one refinement scratch must hold to serve any table.
struct ScratchShape {
  std::uint32_t queries = 0;
  std::uint32_t vectors = 0;
  std::uint32_t degree = 0;
};

/// Refinement scratch of one running bucket, reused across buckets and
/// tables. Built on the calling thread at the run's ScratchShape, so a
/// worker never grows it. Side counts are bucket-local: a bucket zeroes
/// the entries of its own queries before counting, so any table's queries
/// index it and nothing is cleared between buckets.
struct Scratch {
  explicit Scratch(const ScratchShape& shape)
      : counts(shape.queries),
        gains(shape.vectors),
        bins(2 * std::size_t{shape.degree} + 1),
        ids(shape.vectors),
        max_degree(shape.degree) {}
  std::uint64_t byte_size() const {
    return (counts.capacity() + bins.capacity()) * sizeof(PerSide) +
           gains.capacity() * sizeof(std::int32_t) +
           ids.capacity() * sizeof(VectorId);
  }
  std::vector<PerSide> counts;  ///< Per query: its members on each side.
  std::vector<std::int32_t> gains;  ///< Per bucket position, this pass.
  /// Per gain g in [-max_degree, max_degree], at bins[max_degree - g]: how
  /// many vertices of each side have that gain this pass. Zero between
  /// passes.
  std::vector<PerSide> bins;
  /// The vertices tied at a pass's threshold gains, side 0's from the front
  /// and side 1's from the back; then the side-1 vertices while
  /// partitioning.
  std::vector<VectorId> ids;
  std::uint32_t max_degree;
};

/// Split so the left child always holds a whole number of blocks: final
/// buckets then coincide exactly with physical block boundaries. Neither
/// side of a bucket of n vectors is larger than aligned_half(n).
std::uint32_t aligned_half(std::uint32_t n, std::uint32_t vpb) {
  const std::uint32_t blocks = (n + vpb - 1) / vpb;
  return std::min(n, ((blocks + 1) / 2) * vpb);
}

/// The swaps of one pass: `pairs` pairs, made of every vertex of side s
/// whose gain is above gain[s] and the ties[s] largest ids at gain[s]. With
/// no pairs, no gain matches.
struct PassSwaps {
  std::size_t pairs = 0;
  std::int32_t gain[2] = {std::numeric_limits<std::int32_t>::max(),
                          std::numeric_limits<std::int32_t>::max()};
  std::size_t ties[2] = {0, 0};
};

/// The swaps a full sort of each side by (gain, id), descending, defines:
/// pair the i-th entries of the two sides while their gains sum above
/// zero, at most `cap` pairs. Both descending gain sequences are read off
/// the histogram (`at_gain[-g]` is gain g's bin) from the top gain `hi`
/// down. A gain of -hi or less cannot be in a pair: its partner gains at
/// most hi.
PassSwaps plan_swaps(const PerSide* at_gain, std::int32_t hi,
                     std::size_t cap) {
  PassSwaps out;
  std::int32_t g[2] = {hi, hi};             // each side's next gain
  std::uint32_t left[2] = {at_gain[-hi][0], at_gain[-hi][1]};
  std::size_t above[2] = {0, 0};            // entries taken above g[s]
  while (out.pairs < cap) {
    for (const int s : {0, 1}) {
      while (left[s] == 0 && g[s] > -hi) {
        --g[s];
        left[s] = at_gain[-g[s]][s];
        above[s] = out.pairs;
      }
    }
    if (left[0] == 0 || left[1] == 0 || g[0] + g[1] <= 0) break;
    const std::size_t run =
        std::min<std::size_t>({left[0], left[1], cap - out.pairs});
    out.pairs += run;
    for (const int s : {0, 1}) {
      left[s] -= static_cast<std::uint32_t>(run);
      out.gain[s] = g[s];
      out.ties[s] = out.pairs - above[s];
    }
  }
  return out;
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
  // current as each vertex flips.
  PerSide* const counts = scratch.counts.data();
  for (VectorId v : verts) {
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      counts[h.v_queries[i]] = {0, 0};
    }
  }
  for (VectorId v : verts) {
    const std::uint8_t s = side[v];
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      ++counts[h.v_queries[i]][s];
    }
  }
  auto flip_side = [&](VectorId v) {
    const std::uint8_t from = side[v];
    side[v] = from ^ 1;
    for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
      PerSide& c = counts[h.v_queries[i]];
      --c[from];
      ++c[from ^ 1];
    }
  };
  PerSide* const at_gain = scratch.bins.data() + scratch.max_degree;
  std::int32_t* const gains = scratch.gains.data();
  VectorId* const ids = scratch.ids.data();
  const std::size_t cap = std::min(
      {half, n - half,
       std::max<std::size_t>(
           1, static_cast<std::size_t>(max_swap_fraction *
                                       static_cast<double>(n / 2)))});

  std::uint64_t swaps = 0;
  for (std::uint32_t iter = 0; iter < iters; ++iter) {
    // Gains come from the counts at the start of the pass: moving v drops
    // each query it is alone in on its side and adds each query the other
    // side lacks.
    std::int32_t hi = std::numeric_limits<std::int32_t>::min();
    for (std::size_t p = 0; p < n; ++p) {
      // Each vertex's loads form a chain (offsets, then queries, then
      // counts) that ends in a hard-to-predict loop exit, so the next
      // vertices' offsets and queries are fetched ahead.
      if (p + 8 < n) {
        __builtin_prefetch(&h.v_offsets[verts[p + 8]]);
        __builtin_prefetch(&side[verts[p + 8]]);
      }
      if (p + 4 < n) {
        // data() + offset: a vertex without queries may sit at the end.
        __builtin_prefetch(h.v_queries.data() + h.v_offsets[verts[p + 4]]);
      }
      const VectorId v = verts[p];
      const std::uint8_t s = side[v];
      std::int32_t gain = 0;
      for (std::uint64_t i = h.v_offsets[v]; i < h.v_offsets[v + 1]; ++i) {
        const PerSide c = counts[h.v_queries[i]];
        gain += static_cast<std::int32_t>(c[s] == 1) -
                static_cast<std::int32_t>(c[s ^ 1] == 0);
      }
      gains[p] = gain;
      ++at_gain[-gain][s];
      hi = std::max(hi, gain);
    }
    const PassSwaps plan = plan_swaps(at_gain, hi, cap);
    // Flip every vertex above its side's threshold gain, collect the ties
    // at it, and empty the histogram. The flips of a pass commute, so the
    // pairs need no order.
    std::size_t ties_end[2] = {0, n};
    for (std::size_t p = 0; p < n; ++p) {
      const std::int32_t gain = gains[p];
      at_gain[-gain] = {0, 0};
      const VectorId v = verts[p];
      const std::uint8_t s = side[v];
      if (gain > plan.gain[s]) {
        flip_side(v);
      } else if (gain == plan.gain[s]) {
        ids[s == 0 ? ties_end[0]++ : --ties_end[1]] = v;
      }
    }
    // At the threshold, the largest ids go first.
    auto flip_largest = [&](VectorId* first, VectorId* last, std::size_t k) {
      std::nth_element(first, first + k, last, std::greater<>());
      std::for_each(first, first + k, flip_side);
    };
    flip_largest(ids, ids + ties_end[0], plan.ties[0]);
    flip_largest(ids + ties_end[1], ids + n, plan.ties[1]);
    swaps += plan.pairs;
    if (plan.pairs == 0) break;
  }

  // Physically partition the range by side, stably (std::stable_partition
  // would allocate its buffer here, on the worker).
  std::size_t kept = 0;
  std::size_t spilled = 0;
  for (VectorId v : verts) {
    if (side[v] == 0) {
      verts[kept++] = v;
    } else {
      ids[spilled++] = v;
    }
  }
  std::copy(ids, ids + spilled, verts.begin() + kept);
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
                      std::vector<ShpResult>& results,
                      const ScratchShape& shape) {
  Scratch scratch(shape);
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
              const ScratchShape& shape)
      : tables_(tables), results_(results), pool_(pool) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      idle_scratch_.push_back(std::make_unique<Scratch>(shape));
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

/// The most training queries any one vector of `train` appears in: a
/// bound on every vertex degree of the table's co-access graph, which
/// keeps only some of the queries. `last` and `count` hold one entry per
/// vector: the last query that counted it (plus one) and its count. Throws
/// std::invalid_argument on an id past the table.
std::uint32_t degree_bound(const Trace& train, std::uint32_t num_vectors,
                           std::vector<std::uint32_t>& last,
                           std::vector<std::uint32_t>& count) {
  last.assign(num_vectors, 0);
  count.assign(num_vectors, 0);
  std::uint32_t most = 0;
  for (std::size_t q = 0; q < train.num_queries(); ++q) {
    const auto mark = static_cast<std::uint32_t>(q + 1);
    for (const VectorId v : train.query(q)) {
      if (v >= num_vectors) {
        throw std::invalid_argument(
            "run_shp: training trace id " + std::to_string(v) +
            " is past the table's " + std::to_string(num_vectors) +
            " vectors");
      }
      if (last[v] == mark) continue;
      last[v] = mark;
      most = std::max(most, ++count[v]);
    }
  }
  return most;
}

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
  for (const ShpTable& t : tables) {
    validate(t.config);
    if (t.train == nullptr || t.train->num_queries() == 0) {
      throw std::invalid_argument("run_shp: empty training trace");
    }
  }
  ScratchShape shape;
  {
    std::vector<std::uint32_t> last, count;
    for (const ShpTable& t : tables) {
      shape.queries = std::max(
          shape.queries, static_cast<std::uint32_t>(t.train->num_queries()));
      shape.vectors = std::max(shape.vectors, t.num_vectors);
      shape.degree = std::max(
          shape.degree, degree_bound(*t.train, t.num_vectors, last, count));
    }
  }
  std::vector<ShpResult> results(tables.size());
  if (pool && pool->size() > 1) {
    ParallelRun(tables, results, *pool, shape).run();
  } else {
    train_sequential(tables, results, shape);
  }
  return results;
}

ShpResult run_shp(const Trace& train, std::uint32_t num_vectors,
                  const ShpConfig& config, ThreadPool* pool) {
  const ShpTable table{&train, num_vectors, config};
  return std::move(run_shp(std::span(&table, 1), pool).front());
}

}  // namespace bandana
