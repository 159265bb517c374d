#include "similarity/dimsum.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/phase_timer.h"
#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/minhash.h"

namespace bohr::similarity {

namespace {

/// True when `keys` is strictly increasing: sorted, with no duplicates.
bool sorted_distinct(std::span<const std::uint64_t> keys) {
  return std::adjacent_find(keys.begin(), keys.end(),
                            std::greater_equal<>()) == keys.end();
}

}  // namespace

DimsumResult dimsum_jaccard(
    std::span<const std::vector<std::uint64_t>> partitions,
    const DimsumParams& params) {
  BOHR_EXPECTS(params.gamma > 0.0);
  BOHR_EXPECTS(params.num_hashes > 0);
  for (const std::vector<std::uint64_t>& keys : partitions) {
    BOHR_EXPECTS(sorted_distinct(keys));
  }
  const std::size_t n = partitions.size();
  DimsumResult result{SimilarityMatrix(n), 0, 0};
  if (n < 2) return result;

  // One signature per partition, read in place. Each partition is
  // independent, and the batched constructor keeps a per-slot minimum,
  // so neither thread count nor chunking affects the output. Exact mode
  // scores pairs by a linear merge of the keys and reads no signature.
  std::vector<MinHashSignature> sigs;
  if (!params.exact) {
    ScopedPhase phase("dimsum.signatures");
    sigs.assign(n, MinHashSignature(params.num_hashes));
    parallel_for_chunks(n, 1, [&](const ChunkRange& range) {
      for (std::size_t i = range.begin; i < range.end; ++i) {
        sigs[i] = MinHashSignature::of(partitions[i], params.num_hashes);
      }
    });
  }

  // Sampling pre-pass: the bernoulli draws consume one shared sequential
  // stream, so they must happen in historical (i, j) order. The draws are
  // cheap; only the scoring of the examined pairs is worth threading.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_score;
  Rng rng(params.seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint64_t>& xs = partitions[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::vector<std::uint64_t>& ys = partitions[j];
      if (xs.empty() || ys.empty()) {
        ++result.pairs_skipped;
        continue;
      }
      // Jaccard ceiling from set sizes bounds how similar the pair can be.
      const double ceiling =
          static_cast<double>(std::min(xs.size(), ys.size())) /
          static_cast<double>(std::max(xs.size(), ys.size()));
      const double examine_prob = std::min(1.0, params.gamma * ceiling);
      if (!rng.bernoulli(examine_prob)) {
        ++result.pairs_skipped;
        continue;
      }
      ++result.pairs_examined;
      // An examined pair whose key ranges are disjoint would score
      // exactly +0.0, the value its cell already holds, so it is counted
      // but not scored. Exact Jaccard of disjoint sets is 0 / |union|. A
      // MinHash slot's minimum is the hash of one key of its set, and the
      // slot hash mix64(x ^ mix64(h + 1)) is a bijection, so disjoint sets
      // agree in no slot and estimate 0 / m. Ranges that share only a
      // boundary key overlap and are scored.
      if (xs.back() < ys.front() || ys.back() < xs.front()) continue;
      to_score.emplace_back(static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j));
    }
  }

  // Score the examined pairs whose ranges overlap; each writes a
  // distinct matrix cell.
  {
    ScopedPhase phase("dimsum.scoring");
    parallel_for(to_score.size(), [&](std::size_t p) {
      const auto [i, j] = to_score[p];
      const double sim = params.exact
                             ? jaccard_sorted(partitions[i], partitions[j])
                             : sigs[i].estimate_jaccard(sigs[j]);
      result.matrix.set(i, j, sim);
    });
  }
  return result;
}

}  // namespace bohr::similarity
