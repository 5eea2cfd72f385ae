#include "partition/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"

namespace bandana {

namespace {

float sq_dist(const float* a, const float* b, std::uint16_t dim) {
  float s = 0.0f;
  for (std::uint16_t d = 0; d < dim; ++d) {
    const float diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

/// k-means++ seeding over a sample of row indices.
std::vector<float> seed_centroids(const EmbeddingTable& table,
                                  std::span<const VectorId> rows,
                                  std::uint32_t k, std::uint32_t sample_cap,
                                  Rng& rng) {
  const std::uint16_t dim = table.dim();
  // Down-sample the candidate rows if necessary.
  std::vector<VectorId> sample;
  if (rows.size() > sample_cap) {
    sample.reserve(sample_cap);
    for (std::uint32_t i = 0; i < sample_cap; ++i) {
      sample.push_back(rows[rng.next_below(rows.size())]);
    }
    rows = sample;
  }
  std::vector<float> centroids(static_cast<std::size_t>(k) * dim);
  std::vector<float> dist(rows.size(), std::numeric_limits<float>::max());

  // First centroid uniform, the rest D^2-weighted.
  VectorId first = rows[rng.next_below(rows.size())];
  std::copy_n(table.vector(first).data(), dim, centroids.begin());
  for (std::uint32_t c = 1; c < k; ++c) {
    const float* prev = centroids.data() + std::size_t{c - 1} * dim;
    double total = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      dist[i] = std::min(dist[i], sq_dist(table.vector(rows[i]).data(), prev, dim));
      total += dist[i];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng.next_double() * total;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        r -= dist[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.next_below(rows.size());
    }
    std::copy_n(table.vector(rows[pick]).data(), dim,
                centroids.begin() + std::size_t{c} * dim);
  }
  return centroids;
}

/// Lloyd iterations restricted to `rows` (all rows for flat K-means; one
/// parent cluster's rows for the recursive second stage).
KMeansResult lloyd(const EmbeddingTable& table, std::span<const VectorId> rows,
                   const KMeansConfig& config, ThreadPool* pool) {
  const std::uint16_t dim = table.dim();
  const std::uint32_t k =
      std::min<std::uint32_t>(config.k, static_cast<std::uint32_t>(rows.size()));
  KMeansResult result;
  result.k = k;
  result.assignment.assign(rows.size(), 0);
  if (k == 0) return result;

  Rng rng(config.seed);
  result.centroids = seed_centroids(table, rows, k, config.seeding_sample, rng);

  std::vector<double> sums(static_cast<std::size_t>(k) * dim);
  std::vector<std::uint64_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::max();

  for (std::uint32_t iter = 0; iter < config.max_iters; ++iter) {
    // Assignment step (parallel over rows).
    std::vector<double> chunk_inertia(pool ? pool->size() : 1, 0.0);
    auto assign_range = [&](std::size_t begin, std::size_t end,
                            double* inertia_out) {
      double local = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const float* x = table.vector(rows[i]).data();
        float best = std::numeric_limits<float>::max();
        std::uint32_t best_c = 0;
        for (std::uint32_t c = 0; c < k; ++c) {
          const float d =
              sq_dist(x, result.centroids.data() + std::size_t{c} * dim, dim);
          if (d < best) {
            best = d;
            best_c = c;
          }
        }
        result.assignment[i] = best_c;
        local += best;
      }
      *inertia_out = local;
    };
    if (pool && rows.size() > 4096) {
      const std::size_t chunks = pool->size();
      const std::size_t per = (rows.size() + chunks - 1) / chunks;
      std::size_t chunk_idx = 0;
      ThreadPool::TaskGroup group(*pool);
      for (std::size_t begin = 0; begin < rows.size(); begin += per) {
        const std::size_t end = std::min(rows.size(), begin + per);
        double* out = &chunk_inertia[chunk_idx++];
        group.submit([&, begin, end, out] { assign_range(begin, end, out); });
      }
      group.wait();
    } else {
      assign_range(0, rows.size(), &chunk_inertia[0]);
    }
    result.inertia =
        std::accumulate(chunk_inertia.begin(), chunk_inertia.end(), 0.0);
    result.iters_run = iter + 1;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint32_t c = result.assignment[i];
      const float* x = table.vector(rows[i]).data();
      double* s = sums.data() + std::size_t{c} * dim;
      for (std::uint16_t d = 0; d < dim; ++d) s[d] += x[d];
      ++counts[c];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random row.
        const VectorId v = rows[rng.next_below(rows.size())];
        std::copy_n(table.vector(v).data(), dim,
                    result.centroids.begin() + std::size_t{c} * dim);
        continue;
      }
      float* ctr = result.centroids.data() + std::size_t{c} * dim;
      const double* s = sums.data() + std::size_t{c} * dim;
      for (std::uint16_t d = 0; d < dim; ++d) {
        ctr[d] = static_cast<float>(s[d] / static_cast<double>(counts[c]));
      }
    }

    if (prev_inertia < std::numeric_limits<double>::max() &&
        prev_inertia - result.inertia <= config.tolerance * prev_inertia) {
      break;
    }
    prev_inertia = result.inertia;
  }
  return result;
}

}  // namespace

void validate(const KMeansConfig& config) {
  if (config.k == 0) {
    throw std::invalid_argument("KMeansConfig: k must be > 0");
  }
  if (config.max_iters == 0) {
    throw std::invalid_argument("KMeansConfig: max_iters must be > 0");
  }
  if (!(config.tolerance > 0.0)) {
    throw std::invalid_argument("KMeansConfig: tolerance must be > 0");
  }
  if (config.seeding_sample == 0) {
    throw std::invalid_argument("KMeansConfig: seeding_sample must be > 0");
  }
}

void validate(const RecursiveKMeansConfig& config) {
  if (config.top_clusters == 0) {
    throw std::invalid_argument(
        "RecursiveKMeansConfig: top_clusters must be > 0");
  }
  if (config.total_leaves == 0) {
    throw std::invalid_argument(
        "RecursiveKMeansConfig: total_leaves must be > 0");
  }
  if (config.total_leaves < config.top_clusters) {
    throw std::invalid_argument(
        "RecursiveKMeansConfig: total_leaves must be >= top_clusters");
  }
  if (config.max_iters == 0) {
    throw std::invalid_argument("RecursiveKMeansConfig: max_iters must be > 0");
  }
}

KMeansResult kmeans(const EmbeddingTable& table, const KMeansConfig& config,
                    ThreadPool* pool) {
  validate(config);
  std::vector<VectorId> rows(table.num_vectors());
  std::iota(rows.begin(), rows.end(), 0);
  return lloyd(table, rows, config, pool);
}

std::vector<VectorId> cluster_major_order(
    const std::vector<std::uint32_t>& assignment, std::uint32_t k) {
  // Counting sort by cluster, preserving id order inside clusters.
  std::vector<std::uint32_t> offsets(k + 1, 0);
  for (std::uint32_t c : assignment) ++offsets[c + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<VectorId> order(assignment.size());
  for (std::uint32_t v = 0; v < assignment.size(); ++v) {
    order[offsets[assignment[v]]++] = v;
  }
  return order;
}

RecursiveKMeansResult recursive_kmeans(const EmbeddingTable& table,
                                       const RecursiveKMeansConfig& config,
                                       ThreadPool* pool) {
  validate(config);
  RecursiveKMeansResult out;
  // Stage 1: coarse clustering of the whole table.
  KMeansConfig top;
  top.k = config.top_clusters;
  top.max_iters = config.max_iters;
  top.seed = config.seed;
  const KMeansResult stage1 = kmeans(table, top, pool);
  out.iters_top = stage1.iters_run;

  // Group rows per top cluster.
  std::vector<std::vector<VectorId>> groups(stage1.k);
  for (std::uint32_t v = 0; v < table.num_vectors(); ++v) {
    groups[stage1.assignment[v]].push_back(v);
  }

  // Stage 2: sub-cluster each group; leaf budget proportional to size.
  out.order.reserve(table.num_vectors());
  std::uint32_t leaves_total = 0;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    auto& rows = groups[g];
    if (rows.empty()) continue;
    const double share = static_cast<double>(rows.size()) /
                         static_cast<double>(table.num_vectors());
    std::uint32_t k2 = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(share * config.total_leaves)));
    k2 = std::min<std::uint32_t>(k2, static_cast<std::uint32_t>(rows.size()));
    KMeansConfig sub;
    sub.k = k2;
    sub.max_iters = config.max_iters;
    sub.seed = splitmix64(config.seed ^ (0xABCDull + g));
    const KMeansResult stage2 = lloyd(table, rows, sub, pool);
    leaves_total += stage2.k;
    // Emit rows leaf-major.
    std::vector<std::uint32_t> leaf_offsets(stage2.k + 1, 0);
    for (std::uint32_t c : stage2.assignment) ++leaf_offsets[c + 1];
    std::partial_sum(leaf_offsets.begin(), leaf_offsets.end(),
                     leaf_offsets.begin());
    std::vector<VectorId> local(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      local[leaf_offsets[stage2.assignment[i]]++] = rows[i];
    }
    out.order.insert(out.order.end(), local.begin(), local.end());
  }
  out.leaves = leaves_total;
  return out;
}

}  // namespace bandana
