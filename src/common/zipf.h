// Zipf-distributed sampling over a finite universe.
//
// Used by the workload generators to model key popularity skew: real
// analytics keys (URLs, product ids, source IPs) are heavily skewed, which
// is what makes combiners effective and data similarity exploitable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace bohr {

/// Samples ranks in [0, n) with P(rank = r) proportional to 1/(r+1)^s.
///
/// Uses a precomputed inverse-CDF table; sampling is O(log n) via binary
/// search. Exact (no rejection), deterministic given the Rng.
class ZipfSampler {
 public:
  /// @param n universe size (must be > 0)
  /// @param s skew exponent; s = 0 degenerates to uniform
  ZipfSampler(std::size_t n, double s);

  std::size_t universe() const { return cdf_.size(); }

  /// Draws one rank in [0, universe()).
  std::size_t sample(Rng& rng) const;

  /// Probability mass of a given rank.
  double pmf(std::size_t rank) const;

 private:
  std::vector<double> pmf_;  // pmf_[r] = P(rank = r), from the raw weights
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), for sampling only
};

}  // namespace bohr
