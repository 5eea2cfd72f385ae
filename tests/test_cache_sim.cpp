#include "cache/cache_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "trace/stack_distance.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

Trace single_lookup_trace(std::span<const VectorId> seq) {
  Trace t;
  for (VectorId v : seq) {
    const VectorId q[] = {v};
    t.add_query(q);
  }
  return t;
}

TEST(CacheSim, BaselineMatchesStackDistanceHits) {
  // With one lookup per query and no prefetching, the simulator must agree
  // exactly with the Mattson stack-distance hit count.
  TableWorkloadConfig cfg;
  cfg.num_vectors = 2000;
  cfg.mean_lookups_per_query = 1.0;
  TraceGenerator g(cfg, 1);
  const Trace t = g.generate(20000);
  Trace flat = single_lookup_trace(t.all_lookups());

  const auto layout = BlockLayout::identity(cfg.num_vectors, 32);
  const HitRateCurve curve = compute_hit_rate_curve(flat, cfg.num_vectors);
  for (std::uint64_t cap : {50ULL, 200ULL, 1000ULL}) {
    CachePolicyConfig pc;
    pc.capacity_vectors = cap;
    pc.policy = PrefetchPolicy::kNone;
    const auto r = simulate_cache(flat, layout, pc);
    EXPECT_EQ(r.hits, curve.hits(cap)) << "capacity " << cap;
  }
}

TEST(CacheSim, QueryBatchingDedupsBlocks) {
  // One query touching 4 vectors of the same block costs one block read.
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q[] = {0, 1, 2, 3};
  t.add_query(q);
  CachePolicyConfig pc;
  pc.capacity_vectors = 16;
  pc.policy = PrefetchPolicy::kNone;
  const auto r = simulate_cache(t, layout, pc);
  EXPECT_EQ(r.nvm_block_reads, 1u);
  EXPECT_EQ(r.unique_lookups, 4u);
  EXPECT_EQ(r.hits, 0u);
}

TEST(CacheSim, DuplicateLookupsWithinQueryCountOnce) {
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q[] = {5, 5, 5};
  t.add_query(q);
  CachePolicyConfig pc;
  pc.capacity_vectors = 4;
  const auto r = simulate_cache(t, layout, pc);
  EXPECT_EQ(r.lookups, 3u);
  EXPECT_EQ(r.unique_lookups, 1u);
  EXPECT_EQ(r.nvm_block_reads, 1u);
}

TEST(CacheSim, PrefetchAllServesNeighborsFromDram) {
  // Query 1 reads vector 0 (block 0 prefetched); query 2 hits 1..7.
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q0[] = {0};
  const VectorId q1[] = {1, 2, 3, 4, 5, 6, 7};
  t.add_query(q0);
  t.add_query(q1);
  CachePolicyConfig pc;
  pc.capacity_vectors = 32;
  pc.policy = PrefetchPolicy::kAll;
  const auto r = simulate_cache(t, layout, pc);
  EXPECT_EQ(r.nvm_block_reads, 1u);
  EXPECT_EQ(r.hits, 7u);
  EXPECT_EQ(r.prefetch_inserted, 7u);
  EXPECT_EQ(r.prefetch_hits, 7u);
}

TEST(CacheSim, NoPrefetchRereadsBlock) {
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q0[] = {0};
  const VectorId q1[] = {1};
  t.add_query(q0);
  t.add_query(q1);
  CachePolicyConfig pc;
  pc.capacity_vectors = 32;
  pc.policy = PrefetchPolicy::kNone;
  const auto r = simulate_cache(t, layout, pc);
  EXPECT_EQ(r.nvm_block_reads, 2u);
}

TEST(CacheSim, ThresholdFiltersColdVectors) {
  const auto layout = BlockLayout::identity(64, 8);
  std::vector<std::uint32_t> counts(64, 0);
  counts[1] = 100;  // hot
  counts[2] = 1;    // cold
  Trace t;
  const VectorId q0[] = {0};
  const VectorId q1[] = {1};  // hot: should have been prefetched -> hit
  const VectorId q2[] = {2};  // cold: filtered -> miss
  t.add_query(q0);
  t.add_query(q1);
  t.add_query(q2);
  CachePolicyConfig pc;
  pc.capacity_vectors = 32;
  pc.policy = PrefetchPolicy::kThreshold;
  pc.access_threshold = 10;
  const auto r = simulate_cache(t, layout, pc, counts);
  EXPECT_EQ(r.hits, 1u);
  EXPECT_EQ(r.nvm_block_reads, 2u);
}

TEST(CacheSim, ThresholdWithoutAccessCountsThrows) {
  // Same contract as BandanaTable: kThreshold needs one count per vector,
  // and a missing or short span is rejected before the replay indexes it.
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q0[] = {0};
  t.add_query(q0);
  CachePolicyConfig pc;
  pc.policy = PrefetchPolicy::kThreshold;
  EXPECT_THROW(simulate_cache(t, layout, pc), std::invalid_argument);
  const std::vector<std::uint32_t> short_counts(63, 100);
  EXPECT_THROW(simulate_cache(t, layout, pc, short_counts),
               std::invalid_argument);
}

TEST(CacheSim, RejectsBadPolicyValues) {
  // The simulator admits only what the served cache admits, so it rejects
  // the same policy values: a shadow multiplier that is negative, NaN, or
  // too large for the node index, an insertion position outside [0, 1),
  // and a policy value outside the enum (as a corrupt manifest can hold).
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  const VectorId q0[] = {0, 9};
  t.add_query(q0);
  const std::vector<std::uint32_t> counts(64, 100);
  CachePolicyConfig pc;
  pc.capacity_vectors = 16;
  for (const PrefetchPolicy p :
       {PrefetchPolicy::kShadow, PrefetchPolicy::kShadowPosition}) {
    pc.policy = p;
    for (const double m : {-1.0, std::nan(""), HUGE_VAL, 1e30}) {
      pc.shadow_multiplier = m;
      EXPECT_THROW(simulate_cache(t, layout, pc), std::invalid_argument)
          << to_string(p) << " multiplier " << m;
    }
  }
  pc.shadow_multiplier = 1.5;
  for (const PrefetchPolicy p :
       {PrefetchPolicy::kPosition, PrefetchPolicy::kShadowPosition}) {
    pc.policy = p;
    for (const double pos : {-0.5, std::nan(""), 1.0}) {
      pc.insertion_position = pos;
      EXPECT_THROW(simulate_cache(t, layout, pc), std::invalid_argument)
          << to_string(p) << " position " << pos;
    }
  }
  pc.insertion_position = 0.5;
  pc.policy = static_cast<PrefetchPolicy>(17);
  EXPECT_THROW(simulate_cache(t, layout, pc, counts), std::invalid_argument);
}

TEST(CacheSim, ShadowAdmitsOnlyPreviouslySeen) {
  const auto layout = BlockLayout::identity(64, 8);
  Trace t;
  // 1 is an application read (enters shadow). After eviction pressure it is
  // gone from the real cache; the next read of 0 prefetches only vectors in
  // the shadow -> 1 is admitted, 2..7 are not. The filler vectors live in
  // distinct blocks so their block reads admit nothing.
  const VectorId warm[] = {1};
  t.add_query(warm);
  for (VectorId v = 8; v < 40; v += 8) {
    const VectorId q[] = {v};
    t.add_query(q);  // push 1 out of the tiny real cache
  }
  const VectorId probe[] = {0};
  t.add_query(probe);
  const VectorId check1[] = {1};
  const VectorId check2[] = {2};
  t.add_query(check1);
  t.add_query(check2);
  CachePolicyConfig pc;
  pc.capacity_vectors = 3;
  pc.policy = PrefetchPolicy::kShadow;
  pc.shadow_multiplier = 4.0;
  const auto r = simulate_cache(t, layout, pc);
  // check1 hits (prefetched via shadow), check2 misses.
  EXPECT_EQ(r.prefetch_inserted, 1u);
  EXPECT_EQ(r.prefetch_hits, 1u);
}

TEST(CacheSim, UnlimitedCacheNeverEvicts) {
  TableWorkloadConfig cfg;
  cfg.num_vectors = 1000;
  cfg.mean_lookups_per_query = 8;
  TraceGenerator g(cfg, 2);
  const Trace t = g.generate(3000);
  const auto layout = BlockLayout::identity(cfg.num_vectors, 32);
  CachePolicyConfig pc;
  pc.unlimited = true;
  pc.policy = PrefetchPolicy::kNone;
  const auto r = simulate_cache(t, layout, pc);
  // Every unique vector misses exactly once -> reads <= unique vectors,
  // hits == unique_lookups - unique vector count.
  std::vector<bool> seen(cfg.num_vectors, false);
  std::uint64_t unique = 0;
  for (VectorId v : t.all_lookups()) {
    if (!seen[v]) {
      seen[v] = true;
      ++unique;
    }
  }
  EXPECT_EQ(r.hits, r.unique_lookups - unique);
  EXPECT_LE(r.nvm_block_reads, unique);
}

TEST(CacheSim, EffectiveBandwidthOfBaselineIsVectorOverBlock) {
  // A cold, never-reused workload: every lookup reads one block and uses
  // one vector -> effective bandwidth = 128/4096 ~ 3.1 % (paper's ~4 %).
  Trace t;
  for (VectorId v = 0; v < 512; ++v) {
    const VectorId q[] = {v};
    t.add_query(q);
  }
  const auto layout = BlockLayout::random(512, 32, 3);
  CachePolicyConfig pc;
  pc.capacity_vectors = 16;
  pc.policy = PrefetchPolicy::kNone;
  const auto r = simulate_cache(t, layout, pc);
  EXPECT_NEAR(r.effective_bandwidth(128, 4096), 128.0 / 4096.0, 1e-9);
}

TEST(EffectiveBwIncrease, Formula) {
  EXPECT_NEAR(effective_bw_increase(200, 100), 1.0, 1e-12);
  EXPECT_NEAR(effective_bw_increase(100, 100), 0.0, 1e-12);
  EXPECT_NEAR(effective_bw_increase(50, 100), -0.5, 1e-12);
}

}  // namespace
}  // namespace bandana
