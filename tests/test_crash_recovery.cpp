// Kill-9-style crash injection for the persistence layer: a fault-injecting
// BlockStorage wrapper dies (throws, and stays dead) at every write-wave
// boundary of a trickle republish, a one-shot republish and a live add_table
// write, plus the two manifest-commit boundaries (just before / just after
// the rename pointer flip). After each simulated crash the store is reopened from the durable
// manifest and every vector of every table must read back as EXACTLY the old
// plan's bytes or EXACTLY the new plan's bytes — never a torn mix — with the
// flip as the dividing line: any crash before it recovers entirely-old, any
// crash after it entirely-new. Runs across the File and AsyncFile backends.
// Every durable manifest the sweeps leave must also account for each storage
// block exactly once (tests/manifest_audit.h).
//
// The OneFreeList suite pins the store's single allocator across restarts:
// a commit made while another table's push is in flight keeps that push's
// blocks as a pending record, add_table reuses blocks a push freed, and a
// manifest written with per-table free lists (the older writer) reopens
// with them on the one list.
//
// Also pins the satellite storage fixes this PR ships: EINTR-safe
// pread/pwrite loops distinguishing EOF from errors, overflow-checked file
// sizing, and the manifest-routed fresh-vs-preserve decision in the file
// factories (truncate-on-first-invocation destroyed recoverable stores).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/manifest.h"
#include "core/store.h"
#include "core/store_builder.h"
#include "core/trainer.h"
#include "nvm/async_file_storage.h"
#include "nvm/block_storage.h"
#include "partition/layout.h"
#include "manifest_audit.h"
#include "trace/embedding_table.h"

namespace bandana {
namespace {

constexpr std::uint32_t kVectors = 1024;
constexpr std::uint16_t kDim = 32;  // 128 B vectors, 32 per 4 KB block
constexpr std::uint32_t kVpb = 32;
constexpr std::uint32_t kTableBlocks = kVectors / kVpb;  // 32
constexpr std::size_t kTables = 2;

StoreConfig test_config() {
  StoreConfig cfg;
  cfg.cache_shards = 1;
  cfg.simulate_timing = false;
  // Small admission wave (queue_depth x channels = 8 blocks) so a 32-block
  // publish / trickle push spans several write_blocks calls — each one a
  // crash point for the sweep.
  cfg.device.queue_depth = 4;
  cfg.device.channels = 2;
  return cfg;
}

TablePolicy test_policy() {
  TablePolicy pol;
  pol.cache_vectors = 256;
  pol.policy = PrefetchPolicy::kNone;
  return pol;
}

TablePlan identity_plan() {
  return {BlockLayout::identity(kVectors, kVpb), {}, test_policy(), 0.0};
}

TablePlan shuffled_plan() {
  return {BlockLayout::random(kVectors, kVpb, 0xF00D), {}, test_policy(), 0.0};
}

/// Deterministic value matrix; distinct tags give byte-distinct tables.
EmbeddingTable make_values(std::uint32_t tag) {
  EmbeddingTable e(kVectors, kDim);
  for (std::uint32_t v = 0; v < kVectors; ++v) {
    auto row = e.vector(v);
    for (std::uint16_t d = 0; d < kDim; ++d) {
      row[d] = static_cast<float>(tag) * 1000.0f + static_cast<float>(v) +
               static_cast<float>(d) * 0.5f;
    }
  }
  return e;
}

/// The simulated power cut: thrown once the armed write call is reached;
/// every later write through the dead storage throws it again (a crashed
/// process issues no more IO).
struct CrashInjected : std::runtime_error {
  explicit CrashInjected(const std::string& what) : std::runtime_error(what) {}
};

struct FaultPlan {
  bool armed = false;
  std::uint64_t crash_at = 0;  ///< 1-based write call to die on (0 = never).
  std::uint64_t calls = 0;     ///< Write calls observed while armed.
  bool dead = false;
};

/// Transparent BlockStorage wrapper that forwards everything to a real
/// backend and injects the crash on the plan's armed write call.
class FaultInjectedStorage final : public BlockStorage {
 public:
  FaultInjectedStorage(std::unique_ptr<BlockStorage> inner,
                       std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    inner_->read_block(b, out);
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    inner_->read_blocks(ops);
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    before_write();
    inner_->write_block(b, in);
  }
  void write_blocks(std::span<const BlockWriteOp> ops) override {
    before_write();
    inner_->write_blocks(ops);
  }
  bool prefers_batched_reads() const override {
    return inner_->prefers_batched_reads();
  }
  BlockStorageWriteStats write_stats() const override {
    return inner_->write_stats();
  }
  void sync() override {
    if (plan_->dead) throw CrashInjected("sync on dead storage");
    inner_->sync();
  }
  WaveBufferLease lease_wave_buffer(std::size_t bytes) const override {
    return inner_->lease_wave_buffer(bytes);
  }
  bool same_backing(const BlockStorage& other) const override {
    // Unwrap both sides so growth re-invocations on the same file still
    // detect in-place resizing (no spurious block migration).
    const auto* w = dynamic_cast<const FaultInjectedStorage*>(&other);
    return inner_->same_backing(w != nullptr ? *w->inner_ : other);
  }

 private:
  void before_write() {
    if (!plan_->armed) return;
    if (plan_->dead) throw CrashInjected("write on dead storage");
    ++plan_->calls;
    if (plan_->crash_at != 0 && plan_->calls >= plan_->crash_at) {
      plan_->dead = true;
      throw CrashInjected("injected crash at write call " +
                          std::to_string(plan_->calls));
    }
  }

  std::unique_ptr<BlockStorage> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

enum class Backend { kFile, kAsyncFile };

struct Paths {
  std::string block;
  std::string manifest;
};

Paths test_paths(const std::string& name) {
  const std::string base =
      "/tmp/bandana_crash_" + std::to_string(::getpid()) + "_" + name;
  return {base + ".bin", base + ".manifest"};
}

void cleanup(const Paths& p) {
  std::remove(p.block.c_str());
  std::remove(p.manifest.c_str());
  std::remove((p.manifest + ".tmp").c_str());
}

BlockStorageFactory real_factory(Backend be, const Paths& p) {
  if (be == Backend::kFile) return file_storage_factory(p.block, p.manifest);
  return async_file_storage_factory(p.block, {}, p.manifest);
}

BlockStorageFactory faulty_factory(Backend be, const Paths& p,
                                   std::shared_ptr<FaultPlan> plan) {
  return [real = real_factory(be, p), plan = std::move(plan)](
             std::uint64_t num_blocks, std::size_t block_bytes) mutable
             -> std::unique_ptr<BlockStorage> {
    return std::make_unique<FaultInjectedStorage>(real(num_blocks, block_bytes),
                                                  plan);
  };
}

/// Reads every vector of table `t` from the store and classifies the bytes:
/// 'A' = exactly values `a`, 'B' = exactly values `b`, 'X' = torn/neither.
char classify(Store& s, TableId t, const EmbeddingTable& a,
              const EmbeddingTable& b) {
  std::vector<VectorId> ids(kVectors);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::byte> out(std::size_t{kVectors} * a.vector_bytes());
  s.lookup_batch(t, ids, out);
  const auto matches = [&](const EmbeddingTable& v) {
    return std::memcmp(out.data(), v.raw().data(), out.size()) == 0;
  };
  if (matches(a)) return 'A';
  if (matches(b)) return 'B';
  return 'X';
}

enum class HookCrash { kNone, kBeforeFlip, kAfterFlip };

/// How table 0 is pushed to values 3: a trickle onto a shuffled layout, or
/// the one-shot republish on its current (identity) layout.
enum class Push { kTrickle, kRepublish };

struct CrashRun {
  bool crashed = false;
  std::uint64_t write_calls = 0;  ///< Push-phase write calls observed.
};

/// Build a persisted 2-table store (values 1 and 2, identity layouts),
/// pre-size the replacement region, then push table 0 to values 3 with the
/// fault armed. Returns whether the injected crash fired and how many write
/// calls the push phase issued.
CrashRun run_trickle_with_faults(Backend be, const Paths& p,
                                 std::uint64_t crash_at_write, HookCrash hook,
                                 Push push = Push::kTrickle) {
  cleanup(p);
  auto fault = std::make_shared<FaultPlan>();
  const EmbeddingTable v1a = make_values(1);
  const EmbeddingTable v1b = make_values(2);
  const EmbeddingTable v2 = make_values(3);

  Store store = StoreBuilder(test_config())
                    .storage(faulty_factory(be, p, fault))
                    .manifest(p.manifest)
                    .add_table(v1a, identity_plan())
                    .add_table(v1b, identity_plan())
                    .build();
  // Pre-size the replacement region so the push itself never regrows
  // storage: the armed phase then contains exactly the republish write
  // waves plus the finishing manifest commit.
  store.reserve_blocks(2 * kTables * kTableBlocks);

  if (hook != HookCrash::kNone) {
    ManifestCommitHooks hooks;
    auto die = [] { throw CrashInjected("injected crash at manifest flip"); };
    if (hook == HookCrash::kBeforeFlip) hooks.before_flip = die;
    if (hook == HookCrash::kAfterFlip) hooks.after_flip = die;
    store.set_manifest_fault_hooks(hooks);
  }
  fault->armed = true;
  fault->crash_at = crash_at_write;

  CrashRun r;
  try {
    if (push == Push::kRepublish) {
      store.republish(0, v2);
    } else {
      TrickleRepublish session = store.begin_trickle_republish(
          0, v2, shuffled_plan(), RepublishConfig{});
      while (!session.done()) session.pump();
    }
  } catch (const CrashInjected&) {
    r.crashed = true;
  }
  r.write_calls = fault->calls;
  return r;
}

/// Reopen from the durable manifest and check exactly-old/exactly-new.
void expect_recovered(Backend be, const Paths& p, char expect_t0,
                      std::uint64_t expect_epoch) {
  Store s = Store::open(test_config(), p.manifest, real_factory(be, p));
  ASSERT_EQ(s.num_tables(), kTables);
  EXPECT_EQ(s.trickle_epoch(), expect_epoch);
  EXPECT_EQ(s.storage().num_blocks(), 2 * kTables * kTableBlocks);
  const char t0 = classify(s, 0, make_values(1), make_values(3));
  EXPECT_NE(t0, 'X') << "table 0 recovered torn";
  EXPECT_EQ(t0, expect_t0);
  // Table 1 was never republished: always its original bytes.
  EXPECT_EQ(classify(s, 1, make_values(2), make_values(3)), 'A');
}

class CrashRecoveryTest : public ::testing::TestWithParam<Backend> {};

/// Dry run, then a crash at every write-wave boundary of the push.
void sweep_write_crashes(Backend be, const Paths& p, Push push) {
  // Dry run: no crash — the push completes, the flip lands, recovery serves
  // the new plan. Its write-call count defines the sweep range.
  const CrashRun dry =
      run_trickle_with_faults(be, p, 0, HookCrash::kNone, push);
  ASSERT_FALSE(dry.crashed);
  // All 32 blocks change (new values), chunked to the 8-block admission
  // wave: the boundary sweep must have several points.
  ASSERT_GE(dry.write_calls, 2u);
  expect_recovered(be, p, 'B', 1);
  EXPECT_TRUE(manifest_accounts_every_block(p.manifest));

  // Crash at every write-wave boundary. Every one of these predates the
  // manifest flip (replacement blocks are written before the finishing
  // commit), so recovery must serve entirely the OLD plan.
  for (std::uint64_t k = 1; k <= dry.write_calls; ++k) {
    SCOPED_TRACE("crash at write call " + std::to_string(k));
    const CrashRun run =
        run_trickle_with_faults(be, p, k, HookCrash::kNone, push);
    EXPECT_TRUE(run.crashed);
    expect_recovered(be, p, 'A', 0);
    EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  }
}

TEST_P(CrashRecoveryTest, TrickleCrashAtEveryWaveBoundary) {
  const Backend be = GetParam();
  const Paths p = test_paths(be == Backend::kFile ? "wave_file" : "wave_async");
  sweep_write_crashes(be, p, Push::kTrickle);

  // The recovered store is a first-class store: re-run the interrupted
  // republish to completion and the next reopen serves the new plan.
  {
    Store s = Store::open(test_config(), p.manifest, real_factory(be, p));
    const EmbeddingTable v2 = make_values(3);
    TrickleRepublish session =
        s.begin_trickle_republish(0, v2, shuffled_plan(), RepublishConfig{});
    while (!session.done()) session.pump();
    EXPECT_TRUE(session.mapping_swapped());
  }
  expect_recovered(be, p, 'B', 1);
  cleanup(p);
}

// The one-shot republish writes replacement blocks and swaps at the flip
// like a trickle, so a crash mid-push recovers the old values, never torn.
TEST_P(CrashRecoveryTest, RepublishCrashAtEveryWaveBoundary) {
  const Backend be = GetParam();
  const Paths p =
      test_paths(be == Backend::kFile ? "republish_file" : "republish_async");
  sweep_write_crashes(be, p, Push::kRepublish);
  cleanup(p);
}

TEST_P(CrashRecoveryTest, ManifestFlipBoundariesSplitOldFromNew) {
  const Backend be = GetParam();
  const Paths p = test_paths(be == Backend::kFile ? "flip_file" : "flip_async");

  // Die with the new manifest fully written to the tmp file but the rename
  // not yet issued: the durable pointer still names the old plan.
  CrashRun run = run_trickle_with_faults(be, p, 0, HookCrash::kBeforeFlip);
  EXPECT_TRUE(run.crashed);
  expect_recovered(be, p, 'A', 0);

  // Die immediately after the rename: the flip is the commit point, so the
  // new plan is already durable.
  run = run_trickle_with_faults(be, p, 0, HookCrash::kAfterFlip);
  EXPECT_TRUE(run.crashed);
  expect_recovered(be, p, 'B', 1);
  cleanup(p);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashRecoveryTest,
                         ::testing::Values(Backend::kFile,
                                           Backend::kAsyncFile),
                         [](const auto& info) {
                           return info.param == Backend::kFile ? "File"
                                                               : "AsyncFile";
                         });

/// Whether table 0 was pushed before the crashing add_table. Without a
/// push the new table's blocks come from the tail; after one they are the
/// blocks the push freed, which the durable manifest holds as free.
class CrashMidAddTable : public ::testing::TestWithParam<bool> {};

TEST_P(CrashMidAddTable, MidPublishCrashRecoversToFewerTables) {
  const bool after_push = GetParam();
  const Paths p = test_paths(after_push ? "publish_reuse" : "publish");
  cleanup(p);
  auto fault = std::make_shared<FaultPlan>();
  const EmbeddingTable v1 = make_values(1);
  const EmbeddingTable v_pushed = make_values(3);
  const EmbeddingTable v_new = make_values(4);

  Store store = StoreBuilder(test_config())
                    .storage(faulty_factory(Backend::kFile, p, fault))
                    .manifest(p.manifest)
                    .add_table(v1, identity_plan())
                    .build();
  store.reserve_blocks(2 * kTableBlocks);
  if (after_push) store.republish(0, v_pushed);
  fault->armed = true;
  fault->crash_at = 2;  // second write wave of the new table
  EXPECT_THROW(store.add_table(v_new, BlockLayout::identity(kVectors, kVpb),
                               test_policy()),
               CrashInjected);

  // The new table never reached a committed manifest: recovery simply does
  // not know it, and the original table's bytes are intact.
  Store s = Store::open(test_config(), p.manifest,
                        real_factory(Backend::kFile, p));
  ASSERT_EQ(s.num_tables(), 1u);
  EXPECT_EQ(s.storage().num_blocks(), 2 * kTableBlocks);
  EXPECT_EQ(classify(s, 0, v1, v_pushed), after_push ? 'B' : 'A');
  EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  cleanup(p);
}

INSTANTIATE_TEST_SUITE_P(CrashRecovery, CrashMidAddTable, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "OntoFreedBlocks" : "AtTail";
                         });

/// Every vector of table `t` serves exactly `values`.
bool serves(Store& s, TableId t, const EmbeddingTable& values) {
  return classify(s, t, values, values) == 'A';
}

TEST(OneFreeList, CommitDuringAnotherTablesPushKeepsItsBlocks) {
  const Paths p = test_paths("reservation");
  cleanup(p);
  const EmbeddingTable v0 = make_values(1);
  const EmbeddingTable v1 = make_values(2);
  const EmbeddingTable v0_next = make_values(3);
  const EmbeddingTable v1_next = make_values(5);
  {
    Store store = StoreBuilder(test_config())
                      .file_storage(p.block)
                      .manifest(p.manifest)
                      .add_table(v0, identity_plan())
                      .add_table(v1, identity_plan())
                      .build();
    // Table 0's push holds 32 fresh targets and writes one of them ...
    RepublishConfig slow;
    slow.blocks_per_interval = 1;
    slow.interval_us = 1e9;
    TrickleRepublish push =
        store.begin_trickle_republish(0, v0_next, identity_plan(), slow);
    ASSERT_EQ(push.pump(), 1u);
    // ... when table 1's republish commits: the durable manifest must still
    // account for table 0's targets (as a pending record).
    store.republish(1, v1_next);
    EXPECT_EQ(store.storage().num_blocks(), 4 * kTableBlocks);
    EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  }  // Crash-equivalent: the unfinished push never commits again.

  Store s = Store::open(test_config(), p.manifest);
  EXPECT_EQ(s.storage().num_blocks(), 4 * kTableBlocks);
  EXPECT_TRUE(serves(s, 0, v0));
  EXPECT_TRUE(serves(s, 1, v1_next));
  // Reopen reclaimed the pending record: the push recycles, never grows.
  s.republish(0, v0_next);
  EXPECT_EQ(s.storage().num_blocks(), 4 * kTableBlocks);
  EXPECT_TRUE(serves(s, 0, v0_next));
  EXPECT_TRUE(serves(s, 1, v1_next));
  EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  cleanup(p);
}

TEST(OneFreeList, AddTableAfterPushReusesFreedBlocks) {
  const Paths p = test_paths("add_reuse");
  cleanup(p);
  const EmbeddingTable v0 = make_values(1);
  const EmbeddingTable v0_next = make_values(3);
  const EmbeddingTable v_new = make_values(4);
  {
    Store store = StoreBuilder(test_config())
                      .file_storage(p.block)
                      .manifest(p.manifest)
                      .add_table(v0, identity_plan())
                      .build();
    store.republish(0, v0_next);
    ASSERT_EQ(store.storage().num_blocks(), 2 * kTableBlocks);
    // The push freed table 0's first 32 blocks: the new table takes them.
    const TableId t = store.add_table(
        v_new, BlockLayout::random(kVectors, kVpb, 7), test_policy());
    EXPECT_EQ(store.storage().num_blocks(), 2 * kTableBlocks);
    EXPECT_TRUE(serves(store, 0, v0_next));
    EXPECT_TRUE(serves(store, t, v_new));
    EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  }
  Store s = Store::open(test_config(), p.manifest);
  ASSERT_EQ(s.num_tables(), 2u);
  EXPECT_EQ(s.storage().num_blocks(), 2 * kTableBlocks);
  EXPECT_TRUE(serves(s, 0, v0_next));
  EXPECT_TRUE(serves(s, 1, v_new));
  cleanup(p);
}

TEST(OneFreeList, ParentFormatManifestReopensAndRecycles) {
  const Paths p = test_paths("parent_format");
  cleanup(p);
  const EmbeddingTable v0 = make_values(1);
  const EmbeddingTable v1 = make_values(2);
  const EmbeddingTable v0_next = make_values(3);
  const EmbeddingTable v1_next = make_values(5);
  {
    Store store = StoreBuilder(test_config())
                      .file_storage(p.block)
                      .manifest(p.manifest)
                      .add_table(v0, identity_plan())
                      .add_table(v1, identity_plan())
                      .build();
    store.republish(0, v0_next);
    ASSERT_EQ(store.storage().num_blocks(), 3 * kTableBlocks);
  }
  // Rewrite the durable free list the way the older writer kept it: half
  // as table 0's own replacement bank, half as an install's pending
  // record, plus each table's contiguous base.
  auto m = load_manifest(p.manifest);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->free_pool.size(), kTableBlocks);
  ASSERT_TRUE(m->reservations.empty());
  const auto half = m->free_pool.begin() + kTableBlocks / 2;
  m->tables[0].free_blocks.assign(m->free_pool.begin(), half);
  m->reservations.emplace_back(half, m->free_pool.end());
  m->free_pool.clear();
  m->tables[1].first_block = kTableBlocks;
  write_manifest(p.manifest, *m);

  {
    Store s = Store::open(test_config(), p.manifest);
    EXPECT_TRUE(serves(s, 0, v0_next));
    EXPECT_TRUE(serves(s, 1, v1));
    // Both halves joined the one free list: another table's push recycles
    // all of them without growing storage.
    s.republish(1, v1_next);
    EXPECT_EQ(s.storage().num_blocks(), 3 * kTableBlocks);
    EXPECT_TRUE(serves(s, 1, v1_next));
    EXPECT_TRUE(manifest_accounts_every_block(p.manifest));
  }
  Store s = Store::open(test_config(), p.manifest);
  EXPECT_EQ(s.storage().num_blocks(), 3 * kTableBlocks);
  EXPECT_TRUE(serves(s, 0, v0_next));
  EXPECT_TRUE(serves(s, 1, v1_next));
  cleanup(p);
}

TEST(WarmRestart, OpenOrBuildIgnoresQueuedPlansWhenManifestIsValid) {
  const Paths p = test_paths("warm");
  cleanup(p);
  const EmbeddingTable va = make_values(1);
  const EmbeddingTable vb = make_values(2);
  const EmbeddingTable fresh = make_values(9);

  {
    Store s = StoreBuilder(test_config())
                  .file_storage(p.block)
                  .manifest(p.manifest)
                  .add_table(va, identity_plan())
                  .add_table(vb, identity_plan())
                  .build();
    EXPECT_GT(s.store_metrics().manifest_commits, 0u);
  }
  {
    // Warm restart: the queued (different!) values must be ignored — the
    // committed store comes back without retraining and without a single
    // block write.
    Store s = StoreBuilder(test_config())
                  .file_storage(p.block)
                  .manifest(p.manifest)
                  .add_table(fresh, identity_plan())
                  .add_table(fresh, identity_plan())
                  .open_or_build();
    ASSERT_EQ(s.num_tables(), kTables);
    EXPECT_EQ(classify(s, 0, va, fresh), 'A');
    EXPECT_EQ(classify(s, 1, vb, fresh), 'A');
    EXPECT_EQ(s.store_metrics().write_blocks, 0u);
    EXPECT_EQ(s.store_metrics().manifest_commits, 0u);
    EXPECT_EQ(s.endurance().total_bytes_written(), 0u);
  }
  // No manifest -> open_or_build falls back to a cold build of the queued
  // plans (and the factory truncates: nothing recoverable remains).
  std::remove(p.manifest.c_str());
  {
    Store s = StoreBuilder(test_config())
                  .file_storage(p.block)
                  .manifest(p.manifest)
                  .add_table(fresh, identity_plan())
                  .open_or_build();
    ASSERT_EQ(s.num_tables(), 1u);
    EXPECT_EQ(classify(s, 0, fresh, va), 'A');
    EXPECT_GT(s.store_metrics().write_blocks, 0u);
  }
  cleanup(p);
}

TEST(WarmRestart, OpenRejectsGeometryMismatchAndCorruption) {
  const Paths p = test_paths("reject");
  cleanup(p);
  const EmbeddingTable va = make_values(1);
  {
    Store s = StoreBuilder(test_config())
                  .file_storage(p.block)
                  .manifest(p.manifest)
                  .add_table(va, identity_plan())
                  .build();
  }
  StoreConfig bad = test_config();
  bad.vector_bytes = 256;
  EXPECT_THROW(Store::open(bad, p.manifest), std::runtime_error);

  // A flipped byte anywhere fails the checksum: open refuses to serve it.
  {
    FILE* f = std::fopen(p.manifest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }
  EXPECT_THROW(Store::open(test_config(), p.manifest), std::runtime_error);

  // A checksum-valid manifest whose table names a policy outside the enum:
  // the table's cache rejects it instead of serving it as some policy.
  {
    Store s = StoreBuilder(test_config())
                  .file_storage(p.block)
                  .manifest(p.manifest)
                  .add_table(va, identity_plan())
                  .build();
  }
  std::optional<Manifest> m = load_manifest(p.manifest);
  ASSERT_TRUE(m.has_value());
  m->tables[0].policy.policy = static_cast<PrefetchPolicy>(17);
  write_manifest(p.manifest, *m);
  EXPECT_THROW(Store::open(test_config(), p.manifest), std::invalid_argument);
  cleanup(p);
}

// ---- Satellite storage-bugfix regressions ----------------------------------

TEST(StorageGeometry, FileSizeOverflowIsRejected) {
  // uint64 wrap.
  EXPECT_THROW(detail::checked_file_bytes(std::uint64_t{1} << 62, 4096),
               std::runtime_error);
  // Fits uint64 but exceeds off_t.
  EXPECT_THROW(detail::checked_file_bytes((std::uint64_t{1} << 51) + 1, 4096),
               std::runtime_error);
  EXPECT_EQ(detail::checked_file_bytes(4, 4096), 16384u);
  // The constructor path checks BEFORE touching the filesystem.
  EXPECT_THROW(FileBlockStorage("/tmp/bandana_never_created.bin",
                                std::uint64_t{1} << 62, 4096),
               std::runtime_error);
}

TEST(StorageGeometry, ShortFileReadReportsEofNotGarbage) {
  const std::string path = "/tmp/bandana_crash_eof_" +
                           std::to_string(::getpid()) + ".bin";
  FileBlockStorage s(path, 4, 256);
  std::vector<std::byte> buf(256, std::byte{0xAB});
  s.write_block(3, buf);
  // Shrink the file under the storage's feet: a read past the new EOF must
  // say so (pread returning 0 used to spin or surface a bogus errno).
  ASSERT_EQ(::truncate(path.c_str(), 256), 0);
  try {
    s.read_block(3, buf);
    FAIL() << "read past EOF did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hit EOF"), std::string::npos) << what;
    EXPECT_NE(what.find("block 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(ManifestRouting, FactoryPreservesOnlyWithAValidManifest) {
  const Paths p = test_paths("routing");
  cleanup(p);
  const std::vector<std::byte> pattern(512, std::byte{0x5C});
  std::vector<std::byte> got(512);

  // preserve_for_first_open: no manifest path / no manifest file => fresh.
  EXPECT_FALSE(detail::preserve_for_first_open(p.block, "", 2, 512));
  EXPECT_FALSE(detail::preserve_for_first_open(p.block, p.manifest, 2, 512));

  // Without a valid manifest the first invocation truncates: earlier bytes
  // (from a store nothing can recover) are consciously discarded.
  {
    auto s = file_storage_factory(p.block, p.manifest)(2, 512);
    s->write_block(0, pattern);
    s->sync();
  }
  {
    auto s = file_storage_factory(p.block, p.manifest)(2, 512);
    s->read_block(0, got);
    EXPECT_EQ(std::count(got.begin(), got.end(), std::byte{0}), 512);
    s->write_block(0, pattern);
    s->sync();
  }

  // Drop a checksum-valid manifest next to the file: now the factory MUST
  // preserve — a recoverable store must survive being reopened.
  Manifest m;
  m.block_bytes = 512;
  m.vector_bytes = 128;
  m.storage_blocks = 2;
  m.block_file = p.block;
  write_manifest(p.manifest, m);
  EXPECT_TRUE(detail::preserve_for_first_open(p.block, p.manifest, 2, 512));
  {
    auto s = file_storage_factory(p.block, p.manifest)(2, 512);
    s->read_block(0, got);
    EXPECT_EQ(std::memcmp(got.data(), pattern.data(), 512), 0);
  }

  // Valid manifest but the block file is too small for the requested
  // geometry: refuse loudly instead of serving a short file.
  EXPECT_THROW(file_storage_factory(p.block, p.manifest)(1024, 512),
               std::runtime_error);
  // Valid manifest but the block file is gone entirely: same.
  std::remove(p.block.c_str());
  EXPECT_THROW(file_storage_factory(p.block, p.manifest)(2, 512),
               std::runtime_error);
  cleanup(p);
}

}  // namespace
}  // namespace bandana
