#include "similarity/metrics.h"

namespace bohr::similarity {

double jaccard_sorted(std::span<const std::uint64_t> xs,
                      std::span<const std::uint64_t> ys) {
  if (xs.empty() && ys.empty()) return 0.0;
  std::size_t inter = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < xs.size() && b < ys.size()) {
    if (xs[a] < ys[b]) {
      ++a;
    } else if (ys[b] < xs[a]) {
      ++b;
    } else {
      ++inter;
      ++a;
      ++b;
    }
  }
  const std::size_t uni = xs.size() + ys.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace bohr::similarity
