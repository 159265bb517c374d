#include "similarity/kmeans.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/phase_timer.h"
#include "common/rng.h"
#include "common/simd.h"

namespace bohr::similarity {

namespace {

/// sum[d] += x[d] over the blocks `blocks` marks. x's other blocks hold
/// only +0.0 and -0.0, and a sum that starts at +0.0 never becomes -0.0,
/// so adding them would change no bit of it.
void add_blocks(std::vector<double>& sum, const std::vector<double>& x,
                const std::uint64_t* blocks) {
  const std::size_t dim = x.size();
  for (std::size_t w = 0; w < simd::block_mask_words(dim); ++w) {
    for (std::uint64_t live = blocks[w]; live != 0; live &= live - 1) {
      const std::size_t begin = (w * 64 + std::countr_zero(live)) * 4;
      const std::size_t end = std::min(begin + 4, dim);
      for (std::size_t d = begin; d < end; ++d) sum[d] += x[d];
    }
  }
}

// k-means++ seeding: first centroid uniform; each next centroid sampled
// with probability proportional to squared distance from nearest chosen.
// Returns the chosen points' indices; a point may be chosen twice.
std::vector<std::size_t> seed_centroids(
    std::span<const std::vector<double>> points,
    const std::vector<std::uint64_t>& blocks, std::size_t words,
    std::size_t k, Rng& rng) {
  const std::size_t dim = points.front().size();
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  chosen.push_back(rng.below(points.size()));
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::max());
  while (chosen.size() < k) {
    const std::size_t last = chosen.back();
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      dist2[i] = std::min(dist2[i], simd::squared_distance_blocks(
                                        points[i].data(), &blocks[i * words],
                                        points[last].data(),
                                        &blocks[last * words], dim));
      total += dist2[i];
    }
    if (total <= 0.0) {
      // All points coincide with chosen centroids; duplicate one.
      chosen.push_back(last);
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t next = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      target -= dist2[i];
      if (target <= 0.0) {
        next = i;
        break;
      }
    }
    chosen.push_back(next);
  }
  return chosen;
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

  // Each point's and each centroid's nonzero-block mask, `words` words
  // apiece. Distances read only the blocks either side marks and updates
  // add only a point's marked blocks; both skips are exact, so every
  // result has the bits of dense Lloyd iterations.
  const std::size_t words = simd::block_mask_words(dim);
  std::vector<std::uint64_t> point_blocks(points.size() * words);
  for (std::size_t i = 0; i < points.size(); ++i) {
    simd::nonzero_blocks(points[i].data(), dim, &point_blocks[i * words]);
  }
  std::vector<std::uint64_t> centroid_blocks(k * words);
  const auto take_point = [&](std::size_t c, std::size_t i) {
    result.centroids[c] = points[i];
    std::copy_n(&point_blocks[i * words], words, &centroid_blocks[c * words]);
  };
  const auto distance = [&](std::size_t i, std::size_t c) {
    return simd::squared_distance_blocks(
        points[i].data(), &point_blocks[i * words],
        result.centroids[c].data(), &centroid_blocks[c * words], dim);
  };

  Rng rng(params.seed);
  const std::vector<std::size_t> seeds =
      seed_centroids(points, point_blocks, words, k, rng);
  result.centroids.resize(k);
  for (std::size_t c = 0; c < k; ++c) take_point(c, seeds[c]);
  result.assignments.assign(points.size(), 0);

  ScopedPhase phase("kmeans.lloyd");
  // Per-point scratch for the assignment step, and update-step buffers,
  // allocated once instead of per iteration.
  std::vector<std::size_t> best_of(points.size());
  std::vector<double> best_d_of(points.size());
  std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
  std::vector<std::size_t> counts(k, 0);

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    ++result.iterations;
    // Assignment step: nearest-centroid search is independent per point,
    // so it threads; the inertia sum folds serially afterwards in point
    // order so the floating-point rounding matches the serial code.
    parallel_for(points.size(), [&](std::size_t i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = distance(i, c);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      best_of[i] = best;
      best_d_of[i] = best_d;
    });
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

    // Update step. Empty clusters grab the point farthest from its
    // centroid. A centroid's mask is rebuilt as soon as it moves, since
    // a later empty cluster's search reads it.
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t c = result.assignments[i];
      ++counts[c];
      add_blocks(sums[c], points[i], &point_blocks[i * words]);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty cluster with the overall farthest point.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double d = distance(i, result.assignments[i]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        take_point(c, far);
        continue;
      }
      std::vector<double>& centroid = result.centroids[c];
      for (std::size_t d = 0; d < dim; ++d) {
        centroid[d] = sums[c][d] / static_cast<double>(counts[c]);
      }
      simd::nonzero_blocks(centroid.data(), dim, &centroid_blocks[c * words]);
    }
  }
  return result;
}

}  // namespace bohr::similarity
