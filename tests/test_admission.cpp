#include "nvm/admission.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/store.h"
#include "legacy_device_model.h"
#include "trace/trace_generator.h"

namespace bandana {
namespace {

TEST(AdmissionController, UnboundedAdmitsAtArrival) {
  AdmissionController gate(/*channels=*/4, /*queue_depth=*/0);
  EXPECT_FALSE(gate.bounded());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gate.admit(5.0), 5.0);
    gate.on_submitted(1000.0 + i);
  }
  EXPECT_EQ(gate.outstanding(), 0u);  // unbounded tracks nothing
}

TEST(AdmissionController, BoundedDelaysReadsBeyondTheCap) {
  AdmissionController gate(/*channels=*/2, /*queue_depth=*/2);
  ASSERT_TRUE(gate.bounded());
  ASSERT_EQ(gate.max_outstanding(), 4u);

  // Four reads fit at arrival; their completions land at 10, 12, 14, 16.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.admit(0.0), 0.0);
    gate.on_submitted(10.0 + 2 * i);
  }
  EXPECT_EQ(gate.outstanding(), 4u);
  // The fifth read waits for the earliest completion and takes its slot.
  EXPECT_EQ(gate.admit(0.0), 10.0);
  gate.on_submitted(20.0);
  // The sixth frees the t=12 slot.
  EXPECT_EQ(gate.admit(0.0), 12.0);
  gate.on_submitted(22.0);
}

TEST(AdmissionController, DrainsCompletionsAtArrival) {
  AdmissionController gate(/*channels=*/1, /*queue_depth=*/2);
  EXPECT_EQ(gate.admit(0.0), 0.0);
  gate.on_submitted(10.0);
  EXPECT_EQ(gate.admit(0.0), 0.0);
  gate.on_submitted(12.0);
  // A read arriving after both completions sees an empty gate.
  EXPECT_EQ(gate.admit(50.0), 50.0);
  EXPECT_EQ(gate.outstanding(), 0u);
}

TEST(SubmitReads, BoundedBatchIsStrictlySlowerThanUnbounded) {
  NvmDeviceConfig cfg;
  cfg.channels = 2;
  NvmLatencyModel model(cfg);
  const std::uint64_t count = 64;

  auto run = [&](unsigned depth) {
    std::vector<double> channels(cfg.channels, 0.0);
    AdmissionController gate(cfg.channels, depth);
    Rng rng(99);  // same seed: identical per-read service draws
    return submit_reads(model, 0.0, count, channels, gate, rng);
  };

  const double unbounded = run(0);
  const double bounded = run(1);
  EXPECT_GT(unbounded, 0.0);
  // At depth 1 each slot is held through the read's completion overhead,
  // so the channel idles between reads (Fig. 2's low-queue-depth regime)
  // and the batch makespan strictly grows.
  EXPECT_GT(bounded, unbounded);
  // A deeper gate hides the completion overhead: the channel queue is the
  // binding constraint again and the single-batch makespan is unchanged.
  EXPECT_EQ(run(2), unbounded);
  // A batch within the cap is untouched by the gate.
  auto run_small = [&](unsigned depth) {
    std::vector<double> channels(cfg.channels, 0.0);
    AdmissionController gate(cfg.channels, depth);
    Rng rng(99);
    return submit_reads(model, 0.0, 2, channels, gate, rng);
  };
  EXPECT_EQ(run_small(0), run_small(1));
}

// ---- Store-level: oversized requests complete correctly, just later. ----

StoreConfig admission_config(unsigned queue_depth) {
  StoreConfig cfg;
  cfg.simulate_timing = true;
  cfg.cache_shards = 1;
  cfg.device.channels = 2;
  cfg.device.queue_depth = queue_depth;
  return cfg;
}

TEST(StoreAdmission, OversizedRequestCompletesCorrectlyAndQueuesAtTheGate) {
  TableWorkloadConfig wl;
  wl.num_vectors = 4096;
  wl.dim = 32;
  TraceGenerator gen(wl, 21);
  const EmbeddingTable values = gen.make_embeddings();
  TablePolicy policy;
  policy.cache_vectors = 1;  // every distinct block is a real NVM read
  policy.policy = PrefetchPolicy::kNone;

  // One id per block for 64 blocks: far beyond queue_depth(1) x channels(2).
  std::vector<VectorId> ids;
  for (VectorId v = 0; v < 64 * 32; v += 32) ids.push_back(v);
  MultiGetRequest req;
  req.add(0, ids);

  auto serve = [&](unsigned depth) {
    Store store(admission_config(depth), /*seed=*/77);
    store.add_table(values, BlockLayout::identity(4096, 32), policy);
    return store.multi_get(req);
  };

  const MultiGetResult unbounded = serve(0);
  const MultiGetResult bounded = serve(1);

  // Identical serving result: the gate shapes timing, never bytes.
  ASSERT_EQ(bounded.vectors, unbounded.vectors);
  EXPECT_EQ(bounded.block_reads, 64u);
  EXPECT_EQ(unbounded.block_reads, 64u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto want = values.vector_bytes_view(ids[i]);
    ASSERT_EQ(std::memcmp(bounded.vectors[0].data() + i * 128, want.data(),
                          128),
              0)
        << "vector " << ids[i];
  }
  // The request exceeds the queue-depth cap and the shallow gate exposes
  // the per-read completion overhead, so its simulated latency strictly
  // exceeds the unbounded-submission latency (same rng seed, same service
  // draws — only the admission gate differs).
  EXPECT_GT(unbounded.service_latency_us, 0.0);
  EXPECT_GT(bounded.service_latency_us, unbounded.service_latency_us);
}

TEST(StoreAdmission, RequestWithinTheCapIsUnaffected) {
  TableWorkloadConfig wl;
  wl.num_vectors = 2048;
  wl.dim = 32;
  TraceGenerator gen(wl, 22);
  const EmbeddingTable values = gen.make_embeddings();
  TablePolicy policy;
  policy.cache_vectors = 1;
  policy.policy = PrefetchPolicy::kNone;

  MultiGetRequest req;
  req.add(0, std::vector<VectorId>{0, 32, 64});  // 3 blocks <= 2x2 cap

  auto serve = [&](unsigned depth) {
    Store store(admission_config(depth), /*seed=*/78);
    store.add_table(values, BlockLayout::identity(2048, 32), policy);
    return store.multi_get(req).service_latency_us;
  };
  EXPECT_DOUBLE_EQ(serve(0), serve(2));
}

}  // namespace
}  // namespace bandana
