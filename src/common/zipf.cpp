#include "common/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace bohr {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  BOHR_EXPECTS(n > 0);
  BOHR_EXPECTS(s >= 0.0);
  pmf_.resize(n);
  cdf_.resize(n);
  // Kahan-compensated total: a naive sum over a 1e5-rank universe
  // carries ~1e-12 of rounding straight into every normalized mass.
  double total = 0.0;
  double carry = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    pmf_[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    const double y = pmf_[r] - carry;
    const double t = total + y;
    carry = (t - total) - y;
    total = t;
  }
  // The pmf comes straight from the normalized raw weights, so
  // pmf(i)/pmf(j) is exactly ((j+1)/(i+1))^s. The cdf is accumulated
  // separately and only used for sampling; pinning its last entry to 1
  // guards lower_bound against rounding without inflating pmf(n-1).
  double cumulative = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    pmf_[r] /= total;
    cumulative += pmf_[r];
    cdf_[r] = cumulative;
  }
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  BOHR_EXPECTS(rank < pmf_.size());
  return pmf_[rank];
}

}  // namespace bohr
