// Umbrella header: everything a Bandana user needs.
//
// Bandana (Eisenman et al., MLSYS 2019) stores deep-learning embedding
// tables on NVM with a small DRAM cache, recovering NVM's read bandwidth by
// (a) packing co-accessed vectors into the same 4 KB block via hypergraph
// partitioning (SHP) and (b) tuning prefetch admission per table with
// miniature cache simulations.
#pragma once

#include "cache/cache_sim.h"        // IWYU pragma: export
#include "cache/dram_allocator.h"   // IWYU pragma: export
#include "cache/mini_cache.h"       // IWYU pragma: export
#include "cache/prefetch_cache.h"   // IWYU pragma: export
#include "cache/sharded_lru.h"      // IWYU pragma: export
#include "cluster/router.h"         // IWYU pragma: export
#include "cluster/store_cluster.h"  // IWYU pragma: export
#include "core/config.h"            // IWYU pragma: export
#include "core/manifest.h"          // IWYU pragma: export
#include "core/metrics.h"           // IWYU pragma: export
#include "core/request.h"           // IWYU pragma: export
#include "core/retrainer.h"         // IWYU pragma: export
#include "core/store.h"             // IWYU pragma: export
#include "core/store_builder.h"     // IWYU pragma: export
#include "core/trainer.h"           // IWYU pragma: export
#include "nvm/admission.h"          // IWYU pragma: export
#include "nvm/async_file_storage.h" // IWYU pragma: export
#include "nvm/block_storage.h"      // IWYU pragma: export
#include "nvm/endurance.h"          // IWYU pragma: export
#include "nvm/io_engine.h"          // IWYU pragma: export
#include "nvm/nvm_device.h"         // IWYU pragma: export
#include "partition/fanout.h"       // IWYU pragma: export
#include "partition/hypergraph.h"   // IWYU pragma: export
#include "partition/kmeans.h"       // IWYU pragma: export
#include "partition/layout.h"       // IWYU pragma: export
#include "partition/partitioner.h"  // IWYU pragma: export
#include "partition/shp.h"          // IWYU pragma: export
#include "trace/characterizer.h"    // IWYU pragma: export
#include "trace/paper_workload.h"   // IWYU pragma: export
#include "trace/stack_distance.h"   // IWYU pragma: export
#include "trace/trace_generator.h"  // IWYU pragma: export
#include "trace/trace_stream.h"     // IWYU pragma: export
