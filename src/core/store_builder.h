// One-shot Store construction from trained TablePlans.
//
// The incremental Store::add_table path discovers the model's total block
// count one table at a time, forcing a copy-grow of the backing storage on
// every call. StoreBuilder consumes the Trainer's output directly, sums the
// block counts up front, allocates storage exactly once (which is what
// makes file backends practical — the file is created at final size), and
// publishes every table:
//
//   StorePlan plan = trainer.train(traces, sizes, &pool);
//   Store store = StoreBuilder(cfg)
//                     .seed(7)
//                     .file_storage("/mnt/nvm/blocks.bin")  // optional
//                     .add_plan(plan, tables)
//                     .build();
//
// Embedding values are held by reference: they must stay alive until
// build() returns. build() consumes the builder (call it once).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/store.h"
#include "core/trainer.h"
#include "nvm/async_file_storage.h"
#include "nvm/block_storage.h"
#include "trace/embedding_table.h"

namespace bandana {

class StoreBuilder {
 public:
  explicit StoreBuilder(StoreConfig config = {}) : config_(config) {}

  StoreBuilder& seed(std::uint64_t s) {
    seed_ = s;
    return *this;
  }

  /// Back the store with an arbitrary BlockStorage implementation. A
  /// custom factory bypasses the builder's manifest routing: pass a
  /// manifest-aware factory yourself if you combine this with manifest().
  StoreBuilder& storage(BlockStorageFactory factory) {
    backend_ = Backend::kCustom;
    factory_ = std::move(factory);
    return *this;
  }

  /// Back the store with heap memory (the default).
  StoreBuilder& memory_storage() {
    backend_ = Backend::kMemory;
    factory_ = nullptr;
    return *this;
  }

  /// Back the store with a real file at `path` (created at build()).
  StoreBuilder& file_storage(std::string path) {
    backend_ = Backend::kFile;
    file_path_ = std::move(path);
    factory_ = nullptr;
    return *this;
  }

  /// Back the store with a real file at `path` whose batched reads and
  /// writes overlap (io_uring, or thread-pool preads where unavailable).
  /// The store stages each request's miss blocks through it in
  /// admission-sized waves; a wave_buffer_blocks of 0 here sizes the
  /// backend's registered wave-buffer pool to that same admission wave
  /// (device queue_depth x channels), so staged reads and republish waves
  /// run zero-copy through registered buffers.
  StoreBuilder& async_file_storage(std::string path,
                                   AsyncFileBlockStorage::Options options = {}) {
    if (options.wave_buffer_blocks == 0) {
      const std::uint64_t wave =
          std::uint64_t{config_.device.queue_depth} * config_.device.channels;
      if (wave > 0 && wave <= (1u << 20)) {
        options.wave_buffer_blocks = static_cast<unsigned>(wave);
      }
    }
    backend_ = Backend::kAsyncFile;
    file_path_ = std::move(path);
    async_options_ = options;
    factory_ = nullptr;
    return *this;
  }

  /// Persist the store: build() attaches (and immediately commits) a
  /// manifest at `path`, and every subsequent mapping swap commits a new
  /// version crash-atomically — the store becomes recoverable via
  /// Store::open / open_or_build. The file factories also route their
  /// fresh-vs-preserve decision through this manifest.
  StoreBuilder& manifest(std::string path) {
    manifest_path_ = std::move(path);
    return *this;
  }

  /// Queue one table: its values plus the Trainer's plan entry for it.
  /// The builder keeps a pointer to `values`, not a copy: the table must
  /// outlive build(). A temporary does not compile (the overload below).
  StoreBuilder& add_table(const EmbeddingTable& values, TablePlan plan);
  StoreBuilder& add_table(EmbeddingTable&& values, TablePlan plan) = delete;

  /// Queue every table of a StorePlan; `tables[i]` holds the values for
  /// `plan.tables[i]`. Like add_table, the values must outlive build(), so
  /// a temporary vector does not compile.
  StoreBuilder& add_plan(const StorePlan& plan,
                         std::span<const EmbeddingTable> tables);
  StoreBuilder& add_plan(const StorePlan& plan,
                         std::vector<EmbeddingTable>&& tables) = delete;

  /// Run the whole offline pipeline and queue the result: constructs a
  /// Trainer against this builder's StoreConfig (so vectors_per_block and
  /// the partitioner backend agree with the store), trains on
  /// `train_traces`, and queues every table of the plan with `tables` as
  /// its values. Value-based partitioner backends see `tables`
  /// automatically. `stats` (optional) receives training telemetry. The
  /// traces are read before this returns; `tables` must outlive build(),
  /// so a temporary vector does not compile.
  StoreBuilder& train_and_add(const TrainerConfig& trainer_cfg,
                              std::span<const Trace> train_traces,
                              std::span<const EmbeddingTable> tables,
                              ThreadPool* pool = nullptr,
                              TrainerStats* stats = nullptr);
  StoreBuilder& train_and_add(const TrainerConfig& trainer_cfg,
                              std::span<const Trace> train_traces,
                              std::vector<EmbeddingTable>&& tables,
                              ThreadPool* pool = nullptr,
                              TrainerStats* stats = nullptr) = delete;

  /// Number of NVM blocks the built store will occupy.
  std::uint64_t total_blocks() const;

  /// Allocate storage once and publish all queued tables, in add order.
  /// With manifest() set this is an explicit REBUILD: any previous manifest
  /// at that path is deleted up front (the old store is consciously
  /// discarded — a crash mid-build then recovers to "no store", never to a
  /// torn mix of old and new), the new store is built fresh, and the
  /// manifest is attached and committed before build() returns.
  Store build();

  /// Warm restart when possible, cold build otherwise: with a
  /// checksum-valid manifest at manifest() the queued plans are IGNORED and
  /// the committed store is reopened via Store::open (no retraining, no
  /// block writes, through this builder's configured file backend); with no
  /// valid manifest (first boot, or a crash that predates the first commit)
  /// it falls back to build(). Requires manifest() to have been set.
  Store open_or_build();

 private:
  enum class Backend { kMemory, kFile, kAsyncFile, kCustom };
  struct Pending {
    const EmbeddingTable* values;
    TablePlan plan;
  };

  /// The configured backend as a factory. `for_open` distinguishes
  /// Store::open (file backends route preserve-mode through the manifest)
  /// from build (the stale manifest was just deleted, so the same routing
  /// yields a clean truncate); memory/custom return factory_ as-is
  /// (nullptr for memory lets Store::open reject unrecoverable backends).
  BlockStorageFactory materialize_factory(bool for_open);

  StoreConfig config_;
  std::uint64_t seed_ = 42;
  Backend backend_ = Backend::kMemory;
  BlockStorageFactory factory_;
  std::string file_path_;
  AsyncFileBlockStorage::Options async_options_{};
  std::string manifest_path_;
  std::vector<Pending> pending_;
};

}  // namespace bandana
