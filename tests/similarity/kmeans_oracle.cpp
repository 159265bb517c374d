#include "kmeans_oracle.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "common/simd.h"

namespace bohr::similarity::oracle {

namespace {

double sq_distance(std::span<const double> a, std::span<const double> b) {
  return simd::squared_distance(a.data(), b.data(), a.size());
}

// k-means++ seeding: first centroid uniform; each next centroid sampled
// with probability proportional to squared distance from nearest chosen.
std::vector<std::vector<double>> seed_centroids(
    std::span<const std::vector<double>> points, std::size_t k, Rng& rng) {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.below(points.size())]);
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::max());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      dist2[i] = std::min(dist2[i], sq_distance(points[i], centroids.back()));
      total += dist2[i];
    }
    if (total <= 0.0) {
      // All points coincide with chosen centroids; duplicate one.
      centroids.push_back(centroids.back());
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      target -= dist2[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(std::span<const std::vector<double>> points,
                    const KMeansParams& params) {
  BOHR_EXPECTS(!points.empty());
  BOHR_EXPECTS(params.k >= 1);
  const std::size_t dim = points.front().size();
  BOHR_EXPECTS(dim > 0);
  for (const auto& p : points) BOHR_EXPECTS(p.size() == dim);

  KMeansResult result;
  const std::size_t k = std::min(params.k, points.size());

  if (k == points.size()) {
    // Trivial: one point per cluster.
    result.assignments.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      result.assignments[i] = i;
      result.centroids.push_back(points[i]);
    }
    return result;
  }

  Rng rng(params.seed);
  result.centroids = seed_centroids(points, k, rng);
  result.assignments.assign(points.size(), 0);

  // Per-point scratch for the assignment step, and update-step buffers,
  // allocated once instead of per iteration.
  std::vector<std::size_t> best_of(points.size());
  std::vector<double> best_d_of(points.size());
  std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
  std::vector<std::size_t> counts(k, 0);

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    ++result.iterations;
    // Assignment step, then the inertia sum folded in point order.
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = sq_distance(points[i], result.centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      best_of[i] = best;
      best_d_of[i] = best_d;
    }
    bool changed = false;
    result.inertia = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (result.assignments[i] != best_of[i]) {
        result.assignments[i] = best_of[i];
        changed = true;
      }
      result.inertia += best_d_of[i];
    }
    if (!changed && iter > 0) break;

    // Update step. Empty clusters grab the point farthest from its centroid.
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t c = result.assignments[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty cluster with the overall farthest point.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double d =
              sq_distance(points[i], result.centroids[result.assignments[i]]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        result.centroids[c] = points[far];
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }
  return result;
}

}  // namespace bohr::similarity::oracle
