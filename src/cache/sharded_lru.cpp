#include "cache/sharded_lru.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace bandana {

namespace {

/// Split `capacity` across shards proportionally to `count` (largest
/// remainder), then raise empties to 1 entry, stealing from the largest
/// shares while any can spare one.
std::vector<std::uint64_t> split_capacity(
    std::uint64_t capacity, const std::vector<std::uint32_t>& count) {
  const std::size_t n = count.size();
  std::vector<std::uint64_t> caps(n, 0);
  if (n == 1) {
    caps[0] = capacity;
    return caps;
  }
  const std::uint64_t universe =
      std::accumulate(count.begin(), count.end(), std::uint64_t{0});
  std::uint64_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainder(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double exact =
        universe == 0
            ? static_cast<double>(capacity) / static_cast<double>(n)
            : static_cast<double>(capacity) * static_cast<double>(count[s]) /
                  static_cast<double>(universe);
    caps[s] = static_cast<std::uint64_t>(exact);
    assigned += caps[s];
    remainder[s] = {exact - static_cast<double>(caps[s]), s};
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < capacity; ++i) {
    ++caps[remainder[i % n].second];
    ++assigned;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (caps[s] > 0) continue;
    const auto richest = std::max_element(caps.begin(), caps.end());
    if (*richest > 1) --*richest;  // else the total grows past `capacity`
    caps[s] = 1;
  }
  return caps;
}

}  // namespace

ShardedInsertionLru::ShardedInsertionLru(std::uint32_t universe,
                                         std::uint64_t capacity,
                                         std::vector<double> insertion_points,
                                         std::vector<std::uint32_t> shard_sizes)
    : num_segments_(insertion_points.size()), node_of_(universe, kNil) {
  if (capacity == 0) {
    throw std::invalid_argument("ShardedInsertionLru: capacity 0");
  }
  if (insertion_points.empty() || insertion_points.front() != 0.0) {
    throw std::invalid_argument(
        "ShardedInsertionLru: first insertion point must be 0");
  }
  for (std::size_t i = 1; i < insertion_points.size(); ++i) {
    if (insertion_points[i] <= insertion_points[i - 1] ||
        insertion_points[i] >= 1.0) {
      throw std::invalid_argument(
          "ShardedInsertionLru: points must be ascending in [0,1)");
    }
  }
  if (shard_sizes.empty()) shard_sizes.push_back(universe);
  if (std::accumulate(shard_sizes.begin(), shard_sizes.end(),
                      std::uint64_t{0}) != universe) {
    throw std::invalid_argument(
        "ShardedInsertionLru: shard sizes must sum to the universe");
  }

  const std::vector<std::uint64_t> caps = split_capacity(capacity, shard_sizes);
  capacity_ = std::accumulate(caps.begin(), caps.end(), std::uint64_t{0});
  std::uint64_t entries = 0;
  for (std::size_t s = 0; s < caps.size(); ++s) {
    entries += std::min<std::uint64_t>(caps[s], shard_sizes[s]);
  }
  const std::uint64_t markers = shard_sizes.size() * (num_segments_ + 1);
  if (capacity_ + markers >= kNodeLimit || num_segments_ > 0xFFFF) {
    throw std::invalid_argument("ShardedInsertionLru: too many entries");
  }
  entries_ = static_cast<NodeIdx>(entries);
  nodes_.resize(entries + markers);
  segments_.resize(shard_sizes.size() * num_segments_);
  shards_.resize(shard_sizes.size());
  NodeIdx first = 0;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    Shard& sh = shards_[s];
    sh.first = first;
    sh.slots = static_cast<NodeIdx>(
        std::min<std::uint64_t>(caps[s], shard_sizes[s]));
    sh.stats.capacity = caps[s];
    first += sh.slots;
    // Segment k spans depths [floor(f_k*C), floor(f_{k+1}*C)) of the
    // shard's capacity C.
    for (std::size_t k = 0; k < num_segments_; ++k) {
      const auto lo = static_cast<std::uint64_t>(
          std::floor(insertion_points[k] * static_cast<double>(caps[s])));
      const std::uint64_t hi =
          k + 1 < num_segments_
              ? static_cast<std::uint64_t>(std::floor(
                    insertion_points[k + 1] * static_cast<double>(caps[s])))
              : caps[s];
      segment(s, k).target = hi - lo;
    }
    // Head markers, then the end sentinel, chained in order.
    for (std::size_t k = 0; k <= num_segments_; ++k) {
      Node& m = nodes_[marker(s, k)];
      m.prev = k == 0 ? kNil : marker(s, k - 1);
      m.next = k == num_segments_ ? kNil : marker(s, k + 1);
    }
  }
}

void ShardedInsertionLru::link_after(NodeIdx pos, NodeIdx node) {
  Node& p = nodes_[pos];
  Node& n = nodes_[node];
  n.prev = pos;
  n.next = p.next;
  if (p.next != kNil) nodes_[p.next].prev = node;
  p.next = node;
}

void ShardedInsertionLru::unlink(NodeIdx node) {
  Node& n = nodes_[node];
  if (n.prev != kNil) nodes_[n.prev].next = n.next;
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  n.prev = n.next = kNil;
}

void ShardedInsertionLru::cascade(std::uint32_t s, std::size_t k) {
  // Shift one node at a time from an over-full segment to the head of the
  // next; amortized O(K) because each insert adds a single node.
  for (; k + 1 < num_segments_; ++k) {
    if (segment(s, k).size <= segment(s, k).target) return;
    // Last real node of segment k is the one before marker k+1.
    const NodeIdx head = marker(s, k + 1);
    const NodeIdx victim = nodes_[head].prev;
    assert(!is_marker(victim));
    unlink(victim);
    link_after(head, victim);
    nodes_[victim].segment = static_cast<std::uint16_t>(k + 1);
    --segment(s, k).size;
    ++segment(s, k + 1).size;
  }
}

bool ShardedInsertionLru::access(std::uint32_t s, VectorId v) {
  Shard& sh = shards_[s];
  ++sh.stats.accesses;
  const NodeIdx node = node_of_[v];
  if (node == kNil) return false;
  assert(node >= sh.first && node - sh.first < sh.slots);
  ++sh.stats.hits;
  --segment(s, nodes_[node].segment).size;
  unlink(node);
  link_after(marker(s, 0), node);
  nodes_[node].segment = 0;
  ++segment(s, 0).size;
  cascade(s, 0);
  return true;
}

VectorId ShardedInsertionLru::insert(std::uint32_t s, VectorId v,
                                     std::size_t point, bool prefetched) {
  assert(point < num_segments_);
  assert(node_of_[v] == kNil && "insert of an already-cached id");
  Shard& sh = shards_[s];
  ++sh.stats.inserts;
  // Segments with zero capacity (e.g. position 0.99 of a tiny cache)
  // degrade to the previous segment.
  while (point > 0 && segment(s, point).target == 0) --point;

  VectorId evicted = kInvalidVector;
  NodeIdx node = kNil;
  if (sh.stats.size == sh.stats.capacity) {
    // Global LRU tail: last real node, walking back over markers. The
    // entry that evicts it takes over its node.
    node = nodes_[marker(s, num_segments_)].prev;
    while (node != kNil && is_marker(node)) node = nodes_[node].prev;
    assert(node != kNil);
    evicted = nodes_[node].id;
    --segment(s, nodes_[node].segment).size;
    unlink(node);
    node_of_[evicted] = kNil;
    ++sh.stats.evictions;
  } else if (sh.free != kNil) {
    node = sh.free;
    sh.free = nodes_[node].next;
    ++sh.stats.size;
  } else {
    // The shard holds at most its ids, so it never needs more than its
    // slots, even when its capacity exceeds them.
    assert(sh.used < sh.slots && "more ids named in a shard than it serves");
    node = sh.first + sh.used++;
    ++sh.stats.size;
  }

  Node& n = nodes_[node];
  n.id = v;
  n.segment = static_cast<std::uint16_t>(point);
  n.prefetched = prefetched ? 1 : 0;
  link_after(marker(s, point), node);
  node_of_[v] = node;
  ++segment(s, point).size;
  cascade(s, point);
  return evicted;
}

bool ShardedInsertionLru::erase(std::uint32_t s, VectorId v) {
  const NodeIdx node = node_of_[v];
  if (node == kNil) return false;
  Shard& sh = shards_[s];
  assert(node >= sh.first && node - sh.first < sh.slots);
  --segment(s, nodes_[node].segment).size;
  unlink(node);
  node_of_[v] = kNil;
  nodes_[node].next = sh.free;
  sh.free = node;
  --sh.stats.size;
  return true;
}

CacheShardStats ShardedInsertionLru::shard_stats(std::uint32_t s) const {
  return shards_[s].stats;
}

CacheShardStats ShardedInsertionLru::rollup() const {
  CacheShardStats total;
  for (std::uint32_t s = 0; s < num_shards(); ++s) total += shard_stats(s);
  return total;
}

std::uint64_t ShardedInsertionLru::size() const { return rollup().size; }

std::vector<VectorId> ShardedInsertionLru::shard_contents(
    std::uint32_t s) const {
  std::vector<VectorId> out;
  out.reserve(shards_[s].stats.size);
  for (NodeIdx n = nodes_[marker(s, 0)].next; n != kNil; n = nodes_[n].next) {
    if (!is_marker(n)) out.push_back(nodes_[n].id);
  }
  return out;
}

std::vector<VectorId> ShardedInsertionLru::contents() const {
  std::vector<VectorId> out;
  out.reserve(size());
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    const auto shard = shard_contents(s);
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

std::uint64_t ShardedInsertionLru::dram_bytes() const {
  return node_of_.capacity() * sizeof(NodeIdx) +
         nodes_.capacity() * sizeof(Node) +
         segments_.capacity() * sizeof(Segment) +
         shards_.capacity() * sizeof(Shard);
}

}  // namespace bandana
