// DIMSUM that scores every examined pair: the differential oracle for
// similarity::dimsum_jaccard.
//
// Each partition is copied, sorted and deduplicated, every partition is
// signed, and every pair that passes its Bernoulli draw is scored, by
// MinHash agreement or by exact Jaccard. Serial. dimsum_jaccard must
// match it bit for bit: same draws, same counts, same matrix.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "similarity/dimsum.h"

namespace bohr::similarity::oracle {

/// Same contract as similarity::dimsum_jaccard, except that each
/// partition may be any key multiset (duplicates ignored, any order).
DimsumResult dimsum_jaccard(
    std::span<const std::vector<std::uint64_t>> partitions,
    const DimsumParams& params);

}  // namespace bohr::similarity::oracle
