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
/// Inverts a precomputed CDF: a draw u returns the first rank whose CDF
/// reaches u, exactly what a binary search (std::lower_bound) over the
/// CDF returns. A guide table finds that rank in O(1) expected probes
/// (the cutpoint method of Chen & Asau, 1974). Exact (no rejection),
/// deterministic given the Rng, one Rng word per draw.
class ZipfSampler {
 public:
  /// @param n universe size (must be > 0 and fit in 32 bits)
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
  // Guide table of m = 2^k buckets, m <= n: guide_[b] is the first rank
  // whose cdf reaches b/m. A draw's top k bits pick its bucket b, so
  // u >= b/m and the rank lower_bound finds is never below guide_[b].
  std::vector<std::uint32_t> guide_;
  int guide_shift_ = 0;  // 53 - k: a 53-bit draw's shift to its bucket
};

}  // namespace bohr
