// DIMSUM-style all-pairs similarity with probabilistic pruning (§6).
//
// Zadeh & Carlsson's DIMSUM computes all-pairs cosine similarity while
// probabilistically skipping pairs that cannot be similar, trading
// accuracy for speed through an oversampling parameter gamma. The paper
// adapts it to Jaccard similarity over RDD partitions. We follow that
// adaptation: each partition's key set gets an m-function MinHash
// signature; a pair (X, Y) is *examined* only with probability
//   p = min(1, gamma * min(|X|,|Y|) / max(|X|,|Y|)),
// exploiting the Jaccard ceiling J(X,Y) <= min/max sizes — wildly
// different sizes are skipped with high probability, exactly the pairs
// DIMSUM's magnitude-based rule drops. Examined pairs are estimated from
// signature agreement; gamma -> infinity examines every pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "similarity/similarity_matrix.h"

namespace bohr::similarity {

struct DimsumParams {
  std::size_t num_hashes = 32;  ///< MinHash functions (m in the paper)
  double gamma = 4.0;           ///< oversampling; larger = more accurate
  std::uint64_t seed = 42;      ///< sampling seed (deterministic runs)
  bool exact = false;           ///< bypass MinHash; exact Jaccard per pair
};

struct DimsumResult {
  SimilarityMatrix matrix;
  std::uint64_t pairs_examined = 0;
  std::uint64_t pairs_skipped = 0;
};

/// All-pairs Jaccard estimates for `partitions`, each a key set held as
/// strictly increasing keys (engine::combine's output); throws
/// ContractViolation otherwise. Skipped pairs, and examined pairs whose
/// key ranges are disjoint, get similarity 0.
DimsumResult dimsum_jaccard(
    std::span<const std::vector<std::uint64_t>> partitions,
    const DimsumParams& params);

}  // namespace bohr::similarity
