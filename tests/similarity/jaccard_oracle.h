// Set-based exact Jaccard: the reference that jaccard_sorted, DIMSUM and
// the MinHash estimates are checked against.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>

namespace bohr::similarity {

/// Exact Jaccard |X ∩ Y| / |X ∪ Y| over key sets. Inputs may contain
/// duplicates; they are treated as sets. Empty ∪ empty -> 0.
inline double jaccard(std::span<const std::uint64_t> xs,
                      std::span<const std::uint64_t> ys) {
  std::unordered_set<std::uint64_t> x(xs.begin(), xs.end());
  std::unordered_set<std::uint64_t> y(ys.begin(), ys.end());
  if (x.empty() && y.empty()) return 0.0;
  std::size_t inter = 0;
  const auto& small = x.size() <= y.size() ? x : y;
  const auto& large = x.size() <= y.size() ? y : x;
  for (const auto k : small) {
    if (large.contains(k)) ++inter;
  }
  const std::size_t uni = x.size() + y.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace bohr::similarity
