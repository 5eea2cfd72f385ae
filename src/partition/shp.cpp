#include "partition/shp.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "partition/coaccess.h"

namespace bandana {

namespace {

/// Refinement scratch of one running chunk, reused across its buckets and
/// across levels. Side counts are bucket-local: q_epoch marks the queries
/// the current bucket counted, so nothing is cleared between buckets.
struct Scratch {
  explicit Scratch(std::uint32_t num_queries)
      : cnt_a(num_queries, 0), cnt_b(num_queries, 0), q_epoch(num_queries, 0) {}
  std::vector<std::uint32_t> cnt_a;
  std::vector<std::uint32_t> cnt_b;
  std::vector<std::uint32_t> q_epoch;
  std::uint32_t epoch = 0;
  std::vector<std::pair<std::int32_t, VectorId>> cand_a;
  std::vector<std::pair<std::int32_t, VectorId>> cand_b;
};

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

  // Physically partition the range by side (stable for determinism).
  std::stable_partition(verts.begin(), verts.end(),
                        [&](VectorId v) { return side[v] == 0; });
  return swaps;
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

ShpResult run_shp(const Trace& train, std::uint32_t num_vectors,
                  const ShpConfig& config, ThreadPool* pool) {
  validate(config);
  if (train.num_queries() == 0) {
    throw std::invalid_argument("run_shp: empty training trace");
  }
  const CoAccessGraph h =
      build_coaccess(train, num_vectors, config.max_query_size);

  ShpResult result;
  result.access_counts.resize(num_vectors);
  for (VectorId v = 0; v < num_vectors; ++v) {
    result.access_counts[v] = h.degree(v);
  }

  // Vertex order array; ranges are [begin, end) slices of it.
  result.order.resize(num_vectors);
  std::iota(result.order.begin(), result.order.end(), 0);

  auto block_of_order = [&](std::uint32_t vpb) {
    std::vector<std::uint32_t> block_of(num_vectors);
    for (std::uint32_t i = 0; i < num_vectors; ++i) {
      block_of[result.order[i]] = i / vpb;
    }
    return block_of;
  };
  {
    // Initial fanout: seeded random order (what "no partitioning" gives).
    Rng rng(config.seed ^ 0xF00DULL);
    std::vector<VectorId> shuffled = result.order;
    for (std::uint32_t i = num_vectors; i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    std::vector<std::uint32_t> block_of(num_vectors);
    for (std::uint32_t i = 0; i < num_vectors; ++i) {
      block_of[shuffled[i]] = i / config.vectors_per_block;
    }
    result.initial_avg_fanout = coaccess_fanout(
        h, block_of,
        (num_vectors + config.vectors_per_block - 1) / config.vectors_per_block);
  }

  std::vector<std::uint8_t> side(num_vectors, 0);
  struct Range {
    std::uint32_t begin, end;
  };
  const std::uint32_t vpb = config.vectors_per_block;
  // Split so the left child always holds a whole number of blocks: final
  // buckets then coincide exactly with physical block boundaries.
  auto aligned_half = [vpb](std::uint32_t n) -> std::uint32_t {
    const std::uint32_t blocks = (n + vpb - 1) / vpb;
    return std::min(n, ((blocks + 1) / 2) * vpb);
  };
  std::vector<Range> active{{0, num_vectors}};
  std::vector<std::uint64_t> swap_counts;
  const bool parallel = pool && pool->size() > 1;
  // One counting scratch per running chunk: a chunk borrows one for its
  // buckets and hands it back. They are built here, on the calling thread,
  // before a level needs them: at most one per bucket of the widest level
  // so far, and at most one per worker. Between levels all are idle.
  std::vector<std::unique_ptr<Scratch>> idle_scratch;
  std::mutex scratch_mu;

  while (!active.empty()) {
    ++result.levels;
    swap_counts.assign(active.size(), 0);
    const std::size_t running =
        std::min(active.size(), parallel ? pool->size() : 1);
    while (idle_scratch.size() < running) {
      idle_scratch.push_back(std::make_unique<Scratch>(h.num_queries));
    }
    auto refine_chunk = [&](std::size_t rb, std::size_t re) {
      std::unique_ptr<Scratch> scratch;
      {
        std::lock_guard lock(scratch_mu);
        scratch = std::move(idle_scratch.back());
        idle_scratch.pop_back();
      }
      for (std::size_t r = rb; r < re; ++r) {
        const Range range = active[r];
        std::span<VectorId> verts(result.order.data() + range.begin,
                                  range.end - range.begin);
        swap_counts[r] = refine_bucket(
            verts, aligned_half(range.end - range.begin), h, side, *scratch,
            config.iters_per_level, config.max_swap_fraction,
            splitmix64(config.seed ^ (std::uint64_t{result.levels} << 32) ^
                       range.begin));
      }
      std::lock_guard lock(scratch_mu);
      idle_scratch.push_back(std::move(scratch));
    };
    // Buckets are disjoint vertex slices, so chunks of them refine
    // concurrently; each bucket's refinement is sequential, so the plan is
    // the same bytes at every thread count.
    if (parallel) {
      pool->parallel_for(active.size(), refine_chunk);
    } else {
      refine_chunk(0, active.size());
    }
    for (std::uint64_t s : swap_counts) result.total_swaps += s;

    // Split ranges; keep those still larger than a block.
    std::vector<Range> next;
    next.reserve(active.size() * 2);
    for (const Range& range : active) {
      const std::uint32_t n = range.end - range.begin;
      const std::uint32_t half = aligned_half(n);
      const Range child_a{range.begin, range.begin + half};
      const Range child_b{range.begin + half, range.end};
      for (const Range& c : {child_a, child_b}) {
        if (c.end - c.begin > config.vectors_per_block) next.push_back(c);
      }
    }
    active = std::move(next);
  }

  result.final_avg_fanout = coaccess_fanout(
      h, block_of_order(config.vectors_per_block),
      (num_vectors + config.vectors_per_block - 1) / config.vectors_per_block);
  // Peak training memory, estimated at known allocation sites: CSR both
  // directions, order/side/counts/block_of arrays, the counting scratch of
  // each chunk that ran at once, and candidate lists. The input trace is
  // the caller's.
  result.peak_memory_bytes =
      h.byte_size() + std::uint64_t{num_vectors} * (4 + 1 + 4 + 4) +
      std::uint64_t{h.num_queries} * 12 * idle_scratch.size() +
      std::uint64_t{num_vectors} * 16;
  return result;
}

}  // namespace bandana
