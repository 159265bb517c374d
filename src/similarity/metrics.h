// Exact set similarity over sorted keys.
#pragma once

#include <cstdint>
#include <span>

namespace bohr::similarity {

/// Exact Jaccard |X ∩ Y| / |X ∪ Y| over PRE-SORTED, DEDUPLICATED key
/// spans: a single linear merge with no hashing or allocation (DIMSUM's
/// all-pairs scoring holds sorted unique keys). Empty ∪ empty -> 0.
double jaccard_sorted(std::span<const std::uint64_t> xs,
                      std::span<const std::uint64_t> ys);

}  // namespace bohr::similarity
