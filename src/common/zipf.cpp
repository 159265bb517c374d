#include "common/zipf.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace bohr {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  BOHR_EXPECTS(n > 0);
  BOHR_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
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
  // guards the search against rounding without inflating pmf(n-1).
  double cumulative = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    pmf_[r] /= total;
    cumulative += pmf_[r];
    cdf_[r] = cumulative;
  }
  cdf_.back() = 1.0;

  // b/m is exact (m is a power of two), and every draw u < 1 = cdf_.back(),
  // so neither the table nor a scan can step past the last rank.
  const std::size_t m = std::bit_floor(n);
  guide_shift_ = 53 - std::countr_zero(m);
  guide_.resize(m);
  std::size_t r = 0;
  for (std::size_t b = 0; b < m; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(m);
    while (cdf_[r] < edge) ++r;
    guide_[b] = static_cast<std::uint32_t>(r);
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  // The same 53 bits, and so the same u, that Rng::uniform() draws.
  const std::uint64_t bits = rng() >> 11;
  const double u = static_cast<double>(bits) * 0x1.0p-53;
  std::size_t r = guide_[bits >> guide_shift_];
  while (cdf_[r] < u) ++r;
  return r;
}

double ZipfSampler::pmf(std::size_t rank) const {
  BOHR_EXPECTS(rank < pmf_.size());
  return pmf_[rank];
}

}  // namespace bohr
