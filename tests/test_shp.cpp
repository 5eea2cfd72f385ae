#include "partition/shp.h"

#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <set>
#include <string>

#include "partition/fanout.h"
#include "partition/layout.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

/// Workload with strong co-access structure for SHP to find.
Trace structured_trace(std::uint32_t num_vectors, std::size_t queries,
                       std::uint64_t seed) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = num_vectors;
  cfg.mean_lookups_per_query = 16;
  cfg.new_vector_prob = 0.02;
  cfg.num_profiles = num_vectors / 50;
  cfg.profile_size = 64;
  cfg.profile_frac = 0.85;
  TraceGenerator g(cfg, seed);
  return g.generate(queries);
}

TEST(Shp, OrderIsPermutation) {
  const Trace t = structured_trace(5000, 2000, 1);
  ShpConfig cfg;
  cfg.vectors_per_block = 32;
  const auto r = run_shp(t, 5000, cfg);
  std::set<VectorId> seen(r.order.begin(), r.order.end());
  EXPECT_EQ(seen.size(), 5000u);
  EXPECT_EQ(r.access_counts.size(), 5000u);
}

TEST(Shp, ReducesFanoutSubstantially) {
  const Trace t = structured_trace(5000, 4000, 2);
  ShpConfig cfg;
  cfg.vectors_per_block = 32;
  const auto r = run_shp(t, 5000, cfg);
  EXPECT_LT(r.final_avg_fanout, 0.6 * r.initial_avg_fanout);
  // And the reported fanout matches an independent measurement.
  const auto layout = BlockLayout::from_order(r.order, 32);
  const auto measured = compute_fanout(t, layout);
  EXPECT_NEAR(measured.avg_fanout, r.final_avg_fanout,
              0.35 * r.final_avg_fanout);  // run_shp drops tiny/singleton edges
}

TEST(Shp, GeneralizesToHeldOutTrace) {
  // Train and eval traces share profile structure; SHP must help unseen
  // queries, not just the training set.
  TableWorkloadConfig cfg;
  cfg.num_vectors = 5000;
  cfg.mean_lookups_per_query = 16;
  cfg.new_vector_prob = 0.02;
  cfg.num_profiles = 100;
  cfg.profile_size = 64;
  cfg.profile_frac = 0.85;
  TraceGenerator g(cfg, 3);
  const Trace train = g.generate(4000);
  const Trace eval = g.generate(1000);

  ShpConfig sc;
  sc.vectors_per_block = 32;
  const auto r = run_shp(train, 5000, sc);
  const auto shp_layout = BlockLayout::from_order(r.order, 32);
  const auto random_layout = BlockLayout::random(5000, 32, 99);
  const double shp_fanout = compute_fanout(eval, shp_layout).avg_fanout;
  const double rnd_fanout = compute_fanout(eval, random_layout).avg_fanout;
  EXPECT_LT(shp_fanout, 0.75 * rnd_fanout);
}

TEST(Shp, Deterministic) {
  const Trace t = structured_trace(2000, 1000, 4);
  ShpConfig cfg;
  cfg.vectors_per_block = 16;
  const auto a = run_shp(t, 2000, cfg);
  const auto b = run_shp(t, 2000, cfg);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.total_swaps, b.total_swaps);
}

TEST(Shp, ParallelMatchesSequential) {
  const Trace t = structured_trace(2000, 1000, 5);
  ShpConfig cfg;
  cfg.vectors_per_block = 16;
  const auto seq = run_shp(t, 2000, cfg, nullptr);
  ThreadPool pool(4);
  const auto par = run_shp(t, 2000, cfg, &pool);
  EXPECT_EQ(seq.order, par.order);
}

TEST(Shp, AccessCountsAreQueryDegrees) {
  Trace t;
  const VectorId q0[] = {1, 2, 2, 3};  // dedup: {1,2,3}
  const VectorId q1[] = {2, 3};
  const VectorId q2[] = {5};  // singleton, dropped from hypergraph
  t.add_query(q0);
  t.add_query(q1);
  t.add_query(q2);
  ShpConfig cfg;
  cfg.vectors_per_block = 2;
  const auto r = run_shp(t, 8, cfg);
  EXPECT_EQ(r.access_counts[1], 1u);
  EXPECT_EQ(r.access_counts[2], 2u);
  EXPECT_EQ(r.access_counts[3], 2u);
  EXPECT_EQ(r.access_counts[5], 0u);  // singleton query dropped
  EXPECT_EQ(r.access_counts[0], 0u);
}

TEST(Shp, MoreIterationsDoNotHurt) {
  const Trace t = structured_trace(3000, 2000, 6);
  ShpConfig weak, strong;
  weak.vectors_per_block = strong.vectors_per_block = 32;
  weak.iters_per_level = 1;
  strong.iters_per_level = 16;
  const auto rw = run_shp(t, 3000, weak);
  const auto rs = run_shp(t, 3000, strong);
  EXPECT_LE(rs.final_avg_fanout, rw.final_avg_fanout * 1.02);
}

TEST(Shp, TinyTableSingleBlock) {
  Trace t;
  const VectorId q[] = {0, 1, 2};
  t.add_query(q);
  ShpConfig cfg;
  cfg.vectors_per_block = 8;
  const auto r = run_shp(t, 4, cfg);  // fits in one block: nothing to split
  EXPECT_EQ(r.order.size(), 4u);
  EXPECT_NEAR(r.final_avg_fanout, 1.0, 1e-9);
}

TEST(Shp, PerfectlySeparableWorkload) {
  // Queries touch disjoint groups of exactly block size; SHP should reach
  // fanout ~1.
  Trace t;
  Rng rng(7);
  const std::uint32_t groups = 64, vpb = 8;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::uint32_t g = static_cast<std::uint32_t>(rng.next_below(groups));
    std::vector<VectorId> ids;
    for (std::uint32_t i = 0; i < vpb; ++i) {
      if (rng.next_bernoulli(0.7)) ids.push_back(g * vpb + i);
    }
    if (ids.size() >= 2) t.add_query(ids);
  }
  ShpConfig cfg;
  cfg.vectors_per_block = vpb;
  // Tiny ranges converge best with undamped swaps; damping is for large
  // sparse hypergraphs.
  cfg.max_swap_fraction = 1.0;
  cfg.iters_per_level = 32;
  const auto r = run_shp(t, groups * vpb, cfg);
  EXPECT_LT(r.final_avg_fanout, 1.35);
}

// ------------------------------------------------------------- pinned plans

/// Everything run_shp returns except the memory estimate, reduced to
/// values a test can pin: FNV-1a digests of the two arrays, and the
/// fanouts' exact bit patterns.
struct ShpPin {
  std::uint64_t order_digest;
  std::uint64_t counts_digest;
  std::uint64_t total_swaps;
  std::uint32_t levels;
  std::uint64_t initial_fanout_bits;
  std::uint64_t final_fanout_bits;
  bool operator==(const ShpPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ShpPin& p) {
  return os << std::hex << "{0x" << p.order_digest << "ULL, 0x"
            << p.counts_digest << "ULL, " << std::dec << p.total_swaps
            << ", " << p.levels << ", 0x" << std::hex
            << p.initial_fanout_bits << "ULL, 0x" << p.final_fanout_bits
            << "ULL}" << std::dec;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

ShpPin pin_of(const ShpResult& r) {
  return {fnv1a(r.order),
          fnv1a(r.access_counts),
          r.total_swaps,
          r.levels,
          std::bit_cast<std::uint64_t>(r.initial_avg_fanout),
          std::bit_cast<std::uint64_t>(r.final_avg_fanout)};
}

struct PinnedCase {
  std::uint32_t vectors_per_block;
  double max_swap_fraction;
  std::uint32_t iters_per_level;
  std::uint32_t max_query_size;
  ShpPin want;
};

// Plans recorded from the sequential refinement that recounted every side
// count each pass and sorted both whole candidate lists. Refinement must
// stay value-exact, so every thread count reproduces these bytes. 5,000
// vectors leave a partial last block and uneven halves; the widest level
// holds 64 buckets at 32 vectors per block and 128 at 16, more than the 32
// chunks an 8-thread pool cuts a level into. A swap fraction of 1.0 lets
// the swap cap reach the shorter candidate list; one of 1e-4 caps every
// pass at a single pair; 64 passes per level leave late passes with few
// positive-sum pairs. The last two were recorded from the refinement that
// cut each side's candidates with nth_element and sorted the top.
TEST(Shp, PlansMatchPinnedBytesAtEveryThreadCount) {
  constexpr std::uint32_t kVectors = 5000;
  const Trace t = structured_trace(kVectors, 3000, 41);
  const PinnedCase cases[] = {
      {32, 0.15, 16, 0,
       {0x2c2c71a79b17cef9ULL, 0x9141f5d731b2a31dULL, 13886, 8,
        0x402af1d5acb6f465ULL, 0x401c82bb0cf87d9cULL}},
      {16, 0.15, 16, 0,
       {0x340c1656caffab95ULL, 0x9141f5d731b2a31dULL, 16466, 9,
        0x402b83c131d5acb7ULL, 0x4020624dd2f1a9fcULL}},
      {32, 1.0, 16, 0,
       {0x9e9c13786e7b90d5ULL, 0x9141f5d731b2a31dULL, 23828, 8,
        0x402af1d5acb6f465ULL, 0x401ddacb6f46508eULL}},
      {16, 1.0, 1, 0,
       {0xd3aa63abaf1cd8e1ULL, 0x9141f5d731b2a31dULL, 5080, 9,
        0x402b83c131d5acb7ULL, 0x4029162fc962fc96ULL}},
      {32, 0.15, 1, 8,
       {0xba67b1d0adfb0215ULL, 0xa52e5810ee3f660cULL, 504, 8,
        0x401c50239e0d5b45ULL, 0x40178c3e54975fb9ULL}},
      {16, 0.15, 16, 8,
       {0xbf64a36a252b4931ULL, 0xa52e5810ee3f660cULL, 3423, 9,
        0x401cbafdc61f2a4cULL, 0x4014de9bd37a6f4eULL}},
      {32, 1e-4, 16, 0,
       {0x044abe569e628699ULL, 0x9141f5d731b2a31dULL, 2048, 8,
        0x402af1d5acb6f465ULL, 0x4022ed65b7a32847ULL}},
      {16, 0.15, 64, 0,
       {0x45727ccdf99dce49ULL, 0x9141f5d731b2a31dULL, 35377, 9,
        0x402b83c131d5acb7ULL, 0x402086a7ef9db22dULL}},
  };
  for (const PinnedCase& c : cases) {
    ShpConfig cfg;
    cfg.vectors_per_block = c.vectors_per_block;
    cfg.max_swap_fraction = c.max_swap_fraction;
    cfg.iters_per_level = c.iters_per_level;
    cfg.max_query_size = c.max_query_size;
    const std::string name =
        "vpb " + std::to_string(c.vectors_per_block) + ", fraction " +
        std::to_string(c.max_swap_fraction) + ", iters " +
        std::to_string(c.iters_per_level) + ", max_query_size " +
        std::to_string(c.max_query_size);
    EXPECT_EQ(pin_of(run_shp(t, kVectors, cfg)), c.want)
        << name << ", no pool";
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(pin_of(run_shp(t, kVectors, cfg, &pool)), c.want)
          << name << ", " << threads << " threads";
    }
  }
}

// The list form trains each table exactly as a one-table call does, at
// every thread count: tables of different sizes, block sizes and swap
// fractions share the workers and the scratch, and a table smaller than
// one block still gets its single bucket.
TEST(Shp, TableListMatchesOneTableCalls) {
  const std::uint32_t sizes[] = {3000, 700, 5000};
  const Trace traces[] = {structured_trace(sizes[0], 1500, 11),
                          structured_trace(sizes[1], 600, 12),
                          structured_trace(sizes[2], 2500, 13)};
  Trace tiny;
  const VectorId q[] = {0, 1, 2};
  tiny.add_query(q);
  std::vector<ShpTable> tables;
  for (std::size_t i = 0; i < 3; ++i) {
    ShpConfig cfg;
    cfg.vectors_per_block = i == 1 ? 16 : 32;
    cfg.max_swap_fraction = i == 2 ? 1.0 : 0.15;
    cfg.seed = 40 + i;
    tables.push_back(ShpTable{&traces[i], sizes[i], cfg});
  }
  ShpConfig tiny_cfg;
  tiny_cfg.vectors_per_block = 8;
  tables.push_back(ShpTable{&tiny, 4, tiny_cfg});

  std::vector<ShpPin> want;
  for (const ShpTable& t : tables) {
    want.push_back(pin_of(run_shp(*t.train, t.num_vectors, t.config)));
  }
  auto pins = [](const std::vector<ShpResult>& results) {
    std::vector<ShpPin> out;
    for (const ShpResult& r : results) out.push_back(pin_of(r));
    return out;
  };
  EXPECT_EQ(pins(run_shp(tables)), want) << "no pool";
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pins(run_shp(tables, &pool)), want) << threads << " threads";
  }
}

TEST(Shp, RejectsATraceIdPastTheTable) {
  Trace t;
  const VectorId q0[] = {0, 1, 2};
  const VectorId q1[] = {3, 8};  // the table has vectors 0..7
  t.add_query(q0);
  t.add_query(q1);
  ShpConfig cfg;
  cfg.vectors_per_block = 2;
  EXPECT_THROW(run_shp(t, 8, cfg), std::invalid_argument);
  EXPECT_NO_THROW(run_shp(t, 9, cfg));
}

TEST(Shp, TableListRejectsAnEmptyTraceBeforeTraining) {
  const Trace t = structured_trace(1000, 500, 14);
  const Trace empty;
  const ShpTable tables[] = {{&t, 1000, ShpConfig{}},
                             {&empty, 64, ShpConfig{}}};
  ThreadPool pool(2);
  EXPECT_THROW(run_shp(tables, &pool), std::invalid_argument);
}

}  // namespace
}  // namespace bandana
