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

  // Sampling pre-pass: the Bernoulli draws consume one shared sequential
  // stream, so they must happen in historical (i, j) order, where a pair
  // with an empty partition takes no draw; only the scoring of the
  // examined pairs is worth threading. Each non-empty partition's size,
  // first key and last key are read once into flat arrays, and every
  // pair of a row is written to the list of pairs to score, which
  // advances past it only when the pair is examined and its key ranges
  // overlap, so no pair costs a branch.
  //
  // An examined pair whose key ranges are disjoint would score exactly
  // +0.0, the value its cell already holds, so it is counted but not
  // scored. Exact Jaccard of disjoint sets is 0 / |union|. A MinHash
  // slot's minimum is the hash of one key of its set, and the slot hash
  // mix64(x ^ mix64(h + 1)) is a bijection, so disjoint sets agree in no
  // slot and estimate 0 / m. Ranges that share only a boundary key
  // overlap and are scored.
  std::vector<std::uint32_t> live;  // the non-empty partitions, in order
  std::vector<double> sizes;        // their sizes, first and last keys
  std::vector<std::uint64_t> fronts;
  std::vector<std::uint64_t> backs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint64_t>& keys = partitions[i];
    if (keys.empty()) continue;
    live.push_back(static_cast<std::uint32_t>(i));
    sizes.push_back(static_cast<double>(keys.size()));
    fronts.push_back(keys.front());
    backs.push_back(keys.back());
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_score;
  std::size_t kept = 0;
  Rng rng(params.seed);
  for (std::size_t a = 0; a < live.size(); ++a) {
    // Room for every pair of this row past the kept ones.
    to_score.resize(std::max(to_score.size(), kept + live.size() - a - 1));
    for (std::size_t b = a + 1; b < live.size(); ++b) {
      // Jaccard ceiling from set sizes bounds how similar the pair can be.
      const double ceiling =
          std::min(sizes[a], sizes[b]) / std::max(sizes[a], sizes[b]);
      const bool examined =
          rng.bernoulli(std::min(1.0, params.gamma * ceiling));
      const bool overlap = (fronts[a] <= backs[b]) & (fronts[b] <= backs[a]);
      result.pairs_examined += examined;
      to_score[kept] = {live[a], live[b]};
      kept += examined & overlap;
    }
  }
  to_score.resize(kept);
  result.pairs_skipped = n * (n - 1) / 2 - result.pairs_examined;

  // Score the examined pairs whose ranges overlap; each writes its own
  // two matrix cells.
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
