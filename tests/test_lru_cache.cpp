#include "insertion_lru.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "common/rng.h"

namespace bandana {
namespace {

TEST(InsertionLru, BasicLruEviction) {
  InsertionLru c(100, 3);
  EXPECT_EQ(c.insert(1), kInvalidVector);
  EXPECT_EQ(c.insert(2), kInvalidVector);
  EXPECT_EQ(c.insert(3), kInvalidVector);
  EXPECT_EQ(c.size(), 3u);
  // 1 is now LRU.
  EXPECT_EQ(c.insert(4), 1u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(4));
}

TEST(InsertionLru, AccessPromotes) {
  InsertionLru c(100, 3);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  EXPECT_TRUE(c.access(1));  // 2 becomes LRU
  EXPECT_EQ(c.insert(4), 2u);
  EXPECT_TRUE(c.contains(1));
}

TEST(InsertionLru, AccessMissingReturnsFalse) {
  InsertionLru c(10, 2);
  EXPECT_FALSE(c.access(5));
}

TEST(InsertionLru, ContentsMruToLru) {
  InsertionLru c(100, 4);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.access(1);
  EXPECT_EQ(c.contents(), (std::vector<VectorId>{1, 3, 2}));
}

TEST(InsertionLru, Erase) {
  InsertionLru c(10, 3);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.contains(1));
  // Freed capacity is reusable.
  c.insert(3);
  c.insert(4);
  EXPECT_EQ(c.size(), 3u);
}

TEST(InsertionLru, MidQueueInsertionEvictedBeforeTop) {
  // Capacity 10, insertion point at 0.5: prefetched entries enter at depth
  // 5 and must be evicted before the 5 MRU entries inserted at the top.
  InsertionLru c(100, 10, {0.0, 0.5});
  for (VectorId v = 0; v < 5; ++v) c.insert(v, 0);
  c.insert(50, 1);
  c.insert(51, 1);
  // Fill up: 3 more at top.
  for (VectorId v = 5; v < 8; ++v) c.insert(v, 0);
  EXPECT_EQ(c.size(), 10u);
  // Next insert evicts the mid-queue entries first (50/51 sank to bottom).
  const VectorId e1 = c.insert(90, 0);
  EXPECT_TRUE(e1 == 50 || e1 == 51) << e1;
}

TEST(InsertionLru, MidQueueEntryPromotedOnAccess) {
  InsertionLru c(100, 10, {0.0, 0.5});
  for (VectorId v = 0; v < 10; ++v) c.insert(v, 0);
  c.insert(42, 1);  // evicts someone, enters mid-queue
  EXPECT_TRUE(c.access(42));
  EXPECT_EQ(c.contents().front(), 42u);
}

TEST(InsertionLru, InsertionPositionDepthIsRespected) {
  // Fill a capacity-8 cache via the top; then an insert at 0.5 must land at
  // depth 4 (i.e. 4 entries are younger).
  InsertionLru c(100, 8, {0.0, 0.5});
  for (VectorId v = 0; v < 8; ++v) c.insert(v, 0);
  c.insert(42, 1);
  const auto contents = c.contents();
  ASSERT_EQ(contents.size(), 8u);
  // MRU order: 7 6 5 4 then 42 at depth 4.
  EXPECT_EQ(contents[4], 42u);
}

TEST(InsertionLru, InvalidConfigsThrow) {
  EXPECT_THROW(InsertionLru(10, 0), std::invalid_argument);
  EXPECT_THROW(InsertionLru(10, 5, {0.5}), std::invalid_argument);
  EXPECT_THROW(InsertionLru(10, 5, {0.0, 0.5, 0.4}), std::invalid_argument);
  EXPECT_THROW(InsertionLru(10, 5, {0.0, 1.0}), std::invalid_argument);
}

TEST(InsertionLru, CapacityOneWorks) {
  InsertionLru c(10, 1);
  c.insert(1);
  EXPECT_EQ(c.insert(2), 1u);
  EXPECT_TRUE(c.contains(2));
  EXPECT_EQ(c.size(), 1u);
}

/// Reference model: std::list as a single LRU queue with positional insert.
struct RefLru {
  std::list<VectorId> q;  // front = MRU
  std::uint64_t cap;
  std::vector<double> points;

  explicit RefLru(std::uint64_t c, std::vector<double> p)
      : cap(c), points(std::move(p)) {}

  bool access(VectorId v) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (*it == v) {
        q.erase(it);
        q.push_front(v);
        return true;
      }
    }
    return false;
  }
  VectorId insert(VectorId v, std::size_t point) {
    VectorId evicted = kInvalidVector;
    if (q.size() == cap) {
      evicted = q.back();
      q.pop_back();
    }
    // Depth = min(#entries younger than the insertion boundary, size).
    std::size_t depth = static_cast<std::size_t>(
        std::floor(points[point] * static_cast<double>(cap)));
    depth = std::min(depth, q.size());
    auto it = q.begin();
    std::advance(it, depth);
    q.insert(it, v);
    return evicted;
  }
};

TEST(InsertionLru, MatchesReferenceModelPlainLru) {
  // With a single insertion point the segmented structure must behave
  // exactly like a textbook LRU.
  InsertionLru c(50, 8);
  RefLru ref(8, {0.0});
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const VectorId v = static_cast<VectorId>(rng.next_below(50));
    const bool hit = c.access(v);
    const bool ref_hit = ref.access(v);
    ASSERT_EQ(hit, ref_hit) << "step " << i;
    if (!hit) {
      ASSERT_EQ(c.insert(v), ref.insert(v, 0)) << "step " << i;
    }
    ASSERT_EQ(c.size(), ref.q.size());
  }
}

TEST(InsertionLru, SizeNeverExceedsCapacity) {
  InsertionLru c(1000, 37, {0.0, 0.3, 0.7});
  Rng rng(19);
  for (int i = 0; i < 30000; ++i) {
    const VectorId v = static_cast<VectorId>(rng.next_below(1000));
    if (!c.access(v)) {
      c.insert(v, rng.next_below(3));
    }
    ASSERT_LE(c.size(), 37u);
  }
  EXPECT_EQ(c.size(), 37u);  // warm by now
}

TEST(InsertionLru, ContentsMatchesContains) {
  InsertionLru c(200, 20, {0.0, 0.5});
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const VectorId v = static_cast<VectorId>(rng.next_below(200));
    if (!c.access(v)) c.insert(v, rng.next_below(2));
  }
  const auto contents = c.contents();
  EXPECT_EQ(contents.size(), c.size());
  for (VectorId v : contents) EXPECT_TRUE(c.contains(v));
}

}  // namespace
}  // namespace bandana
