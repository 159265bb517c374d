#include "dimsum_oracle.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/minhash.h"

namespace bohr::similarity::oracle {

DimsumResult dimsum_jaccard(
    std::span<const std::vector<std::uint64_t>> partitions,
    const DimsumParams& params) {
  BOHR_EXPECTS(params.gamma > 0.0);
  BOHR_EXPECTS(params.num_hashes > 0);
  const std::size_t n = partitions.size();
  DimsumResult result{SimilarityMatrix(n), 0, 0};
  if (n < 2) return result;

  std::vector<std::vector<std::uint64_t>> keys(n);
  std::vector<MinHashSignature> sigs(n, MinHashSignature(params.num_hashes));
  for (std::size_t i = 0; i < n; ++i) {
    keys[i].assign(partitions[i].begin(), partitions[i].end());
    std::sort(keys[i].begin(), keys[i].end());
    keys[i].erase(std::unique(keys[i].begin(), keys[i].end()), keys[i].end());
    sigs[i] = MinHashSignature::of(keys[i], params.num_hashes);
  }

  Rng rng(params.seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t a = keys[i].size();
      const std::size_t b = keys[j].size();
      if (a == 0 || b == 0) {
        ++result.pairs_skipped;
        continue;
      }
      const double ceiling = static_cast<double>(std::min(a, b)) /
                             static_cast<double>(std::max(a, b));
      if (!rng.bernoulli(std::min(1.0, params.gamma * ceiling))) {
        ++result.pairs_skipped;
        continue;
      }
      ++result.pairs_examined;
      result.matrix.set(i, j,
                        params.exact ? jaccard_sorted(keys[i], keys[j])
                                     : sigs[i].estimate_jaccard(sigs[j]));
    }
  }
  return result;
}

}  // namespace bohr::similarity::oracle
