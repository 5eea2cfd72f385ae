// Exact LRU queue with configurable insertion positions (paper §4.3.1): the
// seed's single-shard cache, kept as the reference ShardedInsertionLru is
// checked against (test_sharded_lru, test_lru_cache). Header-only, test
// code only.
//
// Bandana inserts application-requested vectors at the top (MRU end) of the
// eviction queue but may insert *prefetched* vectors lower — e.g. at the
// middle (position 0.5) — so speculative data cannot evict hot data. This
// class implements a single logical LRU list with K insertion points,
// realized as K contiguous segments delimited by marker nodes. Inserting at
// point j places the entry at depth floor(f_j * capacity); hits promote to
// the global MRU position; eviction takes the global LRU tail. All
// operations are O(#insertion points).
//
// The id universe is dense (VectorId < universe), so the index is a flat
// array rather than a hash table.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.h"

namespace bandana {

class InsertionLru {
 public:
  /// `insertion_points` are fractions of capacity, sorted ascending; the
  /// first must be 0.0 (the MRU end). {0.0} gives a plain LRU.
  InsertionLru(std::uint32_t universe, std::uint64_t capacity,
               std::vector<double> insertion_points = {0.0});

  std::uint64_t size() const { return size_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t num_insertion_points() const { return targets_.size(); }

  bool contains(VectorId v) const { return node_of_[v] >= 0; }

  /// If present: promote to global MRU and return true.
  bool access(VectorId v);

  /// Insert at insertion point `point` (default: MRU). The entry must not be
  /// present. Returns the evicted victim, or kInvalidVector if none.
  VectorId insert(VectorId v, std::size_t point = 0);

  /// Remove a specific entry (e.g. on table republish). Returns false if
  /// absent.
  bool erase(VectorId v);

  /// Entry ids from MRU to LRU (test/diagnostic; O(size)).
  std::vector<VectorId> contents() const;

 private:
  using NodeIdx = std::int32_t;
  static constexpr NodeIdx kNil = -1;

  struct Node {
    NodeIdx prev = kNil;
    NodeIdx next = kNil;
    VectorId id = kInvalidVector;
    std::int16_t segment = -1;  ///< -1 for markers and free nodes.
  };

  void link_after(NodeIdx pos, NodeIdx node);
  void unlink(NodeIdx node);
  /// Push overflow from segment s downward toward the tail.
  void cascade(std::size_t s);
  NodeIdx alloc_node();

  std::uint64_t capacity_;
  std::vector<Node> nodes_;       // [0..K-1]: segment markers, [K]: end sentinel
  std::vector<NodeIdx> node_of_;  // id -> node (or -1)
  std::vector<std::uint64_t> seg_size_;
  std::vector<std::uint64_t> targets_;  // per-segment capacity
  std::vector<NodeIdx> free_;
  std::uint64_t size_ = 0;
  std::size_t num_segments_;
  NodeIdx end_sentinel_;
};

inline InsertionLru::InsertionLru(std::uint32_t universe,
                                  std::uint64_t capacity,
                                  std::vector<double> insertion_points)
    : capacity_(capacity), node_of_(universe, kNil) {
  if (capacity == 0) throw std::invalid_argument("InsertionLru: capacity 0");
  if (insertion_points.empty() || insertion_points.front() != 0.0) {
    throw std::invalid_argument("InsertionLru: first insertion point must be 0");
  }
  for (std::size_t i = 1; i < insertion_points.size(); ++i) {
    if (insertion_points[i] <= insertion_points[i - 1] ||
        insertion_points[i] >= 1.0) {
      throw std::invalid_argument("InsertionLru: points must be ascending in [0,1)");
    }
  }
  num_segments_ = insertion_points.size();

  // Segment s spans depths [floor(f_s*C), floor(f_{s+1}*C)).
  targets_.resize(num_segments_);
  std::vector<std::uint64_t> bounds(num_segments_ + 1);
  for (std::size_t s = 0; s < num_segments_; ++s) {
    bounds[s] = static_cast<std::uint64_t>(
        std::floor(insertion_points[s] * static_cast<double>(capacity)));
  }
  bounds[num_segments_] = capacity;
  for (std::size_t s = 0; s < num_segments_; ++s) {
    targets_[s] = bounds[s + 1] - bounds[s];
  }
  seg_size_.assign(num_segments_, 0);

  // Marker nodes 0..K-1, end sentinel K, then the entry pool.
  nodes_.resize(num_segments_ + 1);
  end_sentinel_ = static_cast<NodeIdx>(num_segments_);
  for (std::size_t i = 0; i <= num_segments_; ++i) {
    nodes_[i].prev = static_cast<NodeIdx>(i) - 1;  // node 0 gets kNil
    nodes_[i].next =
        i == num_segments_ ? kNil : static_cast<NodeIdx>(i) + 1;
  }
}

inline InsertionLru::NodeIdx InsertionLru::alloc_node() {
  if (!free_.empty()) {
    const NodeIdx n = free_.back();
    free_.pop_back();
    return n;
  }
  nodes_.emplace_back();
  return static_cast<NodeIdx>(nodes_.size() - 1);
}

inline void InsertionLru::link_after(NodeIdx pos, NodeIdx node) {
  Node& p = nodes_[pos];
  Node& n = nodes_[node];
  n.prev = pos;
  n.next = p.next;
  if (p.next != kNil) nodes_[p.next].prev = node;
  p.next = node;
}

inline void InsertionLru::unlink(NodeIdx node) {
  Node& n = nodes_[node];
  if (n.prev != kNil) nodes_[n.prev].next = n.next;
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  n.prev = n.next = kNil;
}

inline void InsertionLru::cascade(std::size_t s) {
  // Shift one node at a time from an over-full segment to the head of the
  // next; amortized O(K) because each insert adds a single node.
  for (; s + 1 < num_segments_; ++s) {
    if (seg_size_[s] <= targets_[s]) return;
    // Last real node of segment s is the one before marker s+1.
    const NodeIdx victim = nodes_[static_cast<NodeIdx>(s) + 1].prev;
    assert(victim > end_sentinel_);  // must be a real node
    unlink(victim);
    link_after(static_cast<NodeIdx>(s) + 1, victim);
    nodes_[victim].segment = static_cast<std::int16_t>(s + 1);
    --seg_size_[s];
    ++seg_size_[s + 1];
  }
}

inline bool InsertionLru::access(VectorId v) {
  const NodeIdx node = node_of_[v];
  if (node == kNil) return false;
  const auto seg = static_cast<std::size_t>(nodes_[node].segment);
  unlink(node);
  --seg_size_[seg];
  link_after(0, node);
  nodes_[node].segment = 0;
  ++seg_size_[0];
  cascade(0);
  return true;
}

inline VectorId InsertionLru::insert(VectorId v, std::size_t point) {
  assert(point < num_segments_);
  assert(node_of_[v] == kNil && "insert of an already-cached id");
  // Segments with zero capacity (e.g. position 0.99 of a tiny cache)
  // degrade to the previous segment.
  while (point > 0 && targets_[point] == 0) --point;

  VectorId evicted = kInvalidVector;
  if (size_ == capacity_) {
    // Global LRU tail: last real node, walking back over markers.
    NodeIdx tail = nodes_[end_sentinel_].prev;
    while (tail != kNil && tail <= end_sentinel_) tail = nodes_[tail].prev;
    assert(tail != kNil);
    evicted = nodes_[tail].id;
    --seg_size_[static_cast<std::size_t>(nodes_[tail].segment)];
    unlink(tail);
    node_of_[evicted] = kNil;
    free_.push_back(tail);
    --size_;
  }

  const NodeIdx node = alloc_node();
  nodes_[node].id = v;
  nodes_[node].segment = static_cast<std::int16_t>(point);
  link_after(static_cast<NodeIdx>(point), node);
  node_of_[v] = node;
  ++seg_size_[point];
  ++size_;
  cascade(point);
  return evicted;
}

inline bool InsertionLru::erase(VectorId v) {
  const NodeIdx node = node_of_[v];
  if (node == kNil) return false;
  --seg_size_[static_cast<std::size_t>(nodes_[node].segment)];
  unlink(node);
  node_of_[v] = kNil;
  free_.push_back(node);
  --size_;
  return true;
}

inline std::vector<VectorId> InsertionLru::contents() const {
  std::vector<VectorId> out;
  out.reserve(size_);
  for (NodeIdx n = nodes_[0].next; n != kNil; n = nodes_[n].next) {
    if (n > end_sentinel_) out.push_back(nodes_[n].id);
  }
  return out;
}

}  // namespace bandana
