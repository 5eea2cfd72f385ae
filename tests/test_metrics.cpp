// The code generated from the metrics field tables (common/field_table.h):
// merge rules, the atomic mirror's add/snapshot round trip, printing, and
// the mirror under concurrent writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/sharded_lru.h"
#include "cluster/store_cluster.h"
#include "core/metrics.h"
#include "core/retrainer.h"

namespace bandana {
namespace {

/// A StoreMetrics with every field distinct and non-zero, filled through
/// the field table so a new field is covered without editing this test.
StoreMetrics distinct_store_metrics(std::uint64_t base) {
  StoreMetrics m;
  std::uint64_t next = base;
#define BANDANA_TEST_SET_(type, name, rule) m.name = static_cast<type>(++next);
  BANDANA_STORE_METRICS_FIELDS(BANDANA_TEST_SET_)
#undef BANDANA_TEST_SET_
  return m;
}

TEST(FieldTable, MergeAppliesEachFieldsRule) {
  StoreMetrics a;
  a.staged_blocks = 3;
  a.retrain_runs = 1;
  a.retrain_peak_training_bytes = 500;
  a.registered_buffers_active = false;
  StoreMetrics b;
  b.staged_blocks = 4;
  b.tables_retired = 2;
  b.retrain_peak_training_bytes = 200;
  b.registered_buffers_active = true;

  StoreMetrics m = a;
  m.merge(b);
  EXPECT_EQ(m.staged_blocks, 7u);  // sum
  EXPECT_EQ(m.retrain_runs, 1u);
  EXPECT_EQ(m.tables_retired, 2u);
  EXPECT_EQ(m.retrain_peak_training_bytes, 500u);  // max keeps the larger
  EXPECT_TRUE(m.registered_buffers_active);        // any ORs

  StoreMetrics n = b;
  n += a;  // += is merge; every rule is symmetric
  EXPECT_EQ(n, m);

  TableMetrics t{.lookups = 5, .hits = 2};
  t += TableMetrics{.lookups = 1, .hits = 1, .republish_writes = 9};
  EXPECT_EQ(t, (TableMetrics{.lookups = 6, .hits = 3, .republish_writes = 9}));
}

TEST(FieldTable, MirrorRoundTripsEveryField) {
  const StoreMetrics d = distinct_store_metrics(0);
  AtomicStoreMetrics mirror;
  mirror.add(d);
  EXPECT_EQ(mirror.snapshot(), d);

  // A second add sums, keeps the larger peak and keeps the flag.
  StoreMetrics smaller_peak = d;
  smaller_peak.retrain_peak_training_bytes = 1;
  smaller_peak.registered_buffers_active = false;
  mirror.add(smaller_peak);
  StoreMetrics want = d;
  want.merge(smaller_peak);
  const StoreMetrics got = mirror.snapshot();
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.retrain_peak_training_bytes, d.retrain_peak_training_bytes);
  EXPECT_EQ(got.staged_blocks, 2 * d.staged_blocks);
  EXPECT_TRUE(got.registered_buffers_active);

  AtomicTableMetrics table_mirror;
  const TableMetrics td{1, 2, 3, 4, 5, 6, 7, 8, 9};
  table_mirror.add(td);
  EXPECT_EQ(table_mirror.snapshot(), td);
}

/// Names of a field table, in order.
#define BANDANA_TEST_NAME_(type, name, rule) #name,

template <class T>
void expect_prints_each_name_once(const T& value,
                                  const std::vector<std::string>& names) {
  std::ostringstream os;
  os << value;
  const std::string s = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(s.begin(), s.end(), '=')),
            names.size())
      << s;
  for (const std::string& name : names) {
    const std::string key = " " + name + "=";
    std::size_t found = 0;
    for (auto p = s.find(key); p != std::string::npos; p = s.find(key, p + 1)) {
      ++found;
    }
    EXPECT_EQ(found, 1u) << name << " in " << s;
  }
}

TEST(FieldTable, PrintsEveryFieldOnce) {
  expect_prints_each_name_once(
      distinct_store_metrics(0),
      {BANDANA_STORE_METRICS_FIELDS(BANDANA_TEST_NAME_)});
  expect_prints_each_name_once(
      TableMetrics{}, {BANDANA_TABLE_METRICS_FIELDS(BANDANA_TEST_NAME_)});
  expect_prints_each_name_once(
      RouterMetrics{}, {BANDANA_ROUTER_METRICS_FIELDS(BANDANA_TEST_NAME_)});
  expect_prints_each_name_once(
      CacheShardStats{},
      {BANDANA_CACHE_SHARD_STATS_FIELDS(BANDANA_TEST_NAME_)});
  expect_prints_each_name_once(
      TableTrafficStats{}, {BANDANA_TABLE_TRAFFIC_FIELDS(BANDANA_TEST_NAME_)});

  std::ostringstream os;
  os << RouterMetrics{.requests = 3, .failovers = 1};
  EXPECT_EQ(os.str(),
            "{ requests=3 sub_requests=0 failed_sub_requests=0 "
            "failed_lookups=0 failovers=1 }");
}

TEST(FieldTable, ConcurrentAddsSumExactly) {
  // Four writers add while a fifth thread snapshots: every snapshot's sums
  // only grow, and the final snapshot is the exact sums and the max.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kAdds = 20000;
  AtomicStoreMetrics mirror;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        StoreMetrics d;
        d.staged_blocks = 1;
        d.write_blocks = static_cast<std::uint64_t>(w) + 1;
        d.retrain_peak_training_bytes = i * kWriters + w;
        d.registered_buffers_active = w == 2 && i == kAdds / 2;
        mirror.add(d);
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t snapshots = 0;
  StoreMetrics last;
  do {
    const StoreMetrics s = mirror.snapshot();
    EXPECT_GE(s.staged_blocks, last.staged_blocks);
    EXPECT_GE(s.write_blocks, last.write_blocks);
    EXPECT_GE(s.retrain_peak_training_bytes, last.retrain_peak_training_bytes);
    last = s;
    ++snapshots;
  } while (running.load() > 0);
  for (std::thread& t : writers) t.join();

  StoreMetrics want;
  want.staged_blocks = kWriters * kAdds;
  want.write_blocks = kAdds * (1 + 2 + 3 + 4);
  want.retrain_peak_training_bytes = (kAdds - 1) * kWriters + (kWriters - 1);
  want.registered_buffers_active = true;
  EXPECT_EQ(mirror.snapshot(), want);
  std::printf("[metrics] %llu snapshots during the adds\n",
              static_cast<unsigned long long>(snapshots));
}

}  // namespace
}  // namespace bandana
