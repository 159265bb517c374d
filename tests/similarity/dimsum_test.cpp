#include "similarity/dimsum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dimsum_oracle.h"
#include "jaccard_oracle.h"
#include "similarity/kmeans.h"

namespace bohr::similarity {
namespace {

std::vector<std::uint64_t> iota_keys(std::uint64_t from, std::uint64_t count) {
  std::vector<std::uint64_t> keys(count);
  for (std::uint64_t i = 0; i < count; ++i) keys[i] = from + i;
  return keys;
}

TEST(SimilarityMatrixTest, DiagonalIsOne) {
  SimilarityMatrix m(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(m.get(i, i), 1.0);
}

TEST(SimilarityMatrixTest, SymmetricStorage) {
  SimilarityMatrix m(5);
  m.set(1, 3, 0.7);
  EXPECT_DOUBLE_EQ(m.get(3, 1), 0.7);
  m.set(4, 0, 0.2);
  EXPECT_DOUBLE_EQ(m.get(0, 4), 0.2);
}

TEST(SimilarityMatrixTest, RowExtraction) {
  SimilarityMatrix m(3);
  m.set(0, 1, 0.5);
  m.set(0, 2, 0.25);
  const auto row = m.row(0);
  EXPECT_EQ(row, (std::vector<double>{1.0, 0.5, 0.25}));
}

TEST(DimsumTest, ExactModeMatchesJaccard) {
  std::vector<std::vector<std::uint64_t>> parts{
      iota_keys(0, 100), iota_keys(50, 100), iota_keys(500, 100)};
  DimsumParams params;
  params.exact = true;
  params.gamma = 1e9;  // examine everything
  const auto result = dimsum_jaccard(parts, params);
  EXPECT_DOUBLE_EQ(result.matrix.get(0, 1), jaccard(parts[0], parts[1]));
  EXPECT_DOUBLE_EQ(result.matrix.get(0, 2), 0.0);
  EXPECT_EQ(result.pairs_examined, 3u);
  EXPECT_EQ(result.pairs_skipped, 0u);
}

TEST(DimsumTest, MinHashEstimateApproximatesTruth) {
  std::vector<std::vector<std::uint64_t>> parts{iota_keys(0, 200),
                                                iota_keys(100, 200)};
  DimsumParams params;
  params.num_hashes = 256;
  params.gamma = 1e9;
  const auto result = dimsum_jaccard(parts, params);
  const double truth = jaccard(parts[0], parts[1]);
  EXPECT_NEAR(result.matrix.get(0, 1), truth, 0.1);
}

TEST(DimsumTest, LowGammaPrunesDissimilarSizedPairs) {
  // One huge and one tiny partition: ceiling = 10/10000, so with small
  // gamma the pair is almost surely skipped.
  std::vector<std::vector<std::uint64_t>> parts{iota_keys(0, 10000),
                                                iota_keys(0, 10)};
  DimsumParams params;
  params.gamma = 0.5;
  params.seed = 9;
  const auto result = dimsum_jaccard(parts, params);
  EXPECT_EQ(result.pairs_skipped, 1u);
  EXPECT_DOUBLE_EQ(result.matrix.get(0, 1), 0.0);
}

TEST(DimsumTest, HighGammaExaminesEverything) {
  std::vector<std::vector<std::uint64_t>> parts{
      iota_keys(0, 50), iota_keys(0, 500), iota_keys(0, 5)};
  DimsumParams params;
  params.gamma = 1e12;
  const auto result = dimsum_jaccard(parts, params);
  EXPECT_EQ(result.pairs_examined, 3u);
}

TEST(DimsumTest, DeterministicForSeed) {
  std::vector<std::vector<std::uint64_t>> parts;
  for (int p = 0; p < 8; ++p) parts.push_back(iota_keys(p * 20, 60));
  DimsumParams params;
  params.gamma = 1.0;
  params.seed = 1234;
  const auto a = dimsum_jaccard(parts, params);
  const auto b = dimsum_jaccard(parts, params);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = 0; j < parts.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.matrix.get(i, j), b.matrix.get(i, j));
    }
  }
  EXPECT_EQ(a.pairs_examined, b.pairs_examined);
}

TEST(DimsumTest, EmptyPartitionSkipped) {
  std::vector<std::vector<std::uint64_t>> parts{{}, iota_keys(0, 10)};
  DimsumParams params;
  const auto result = dimsum_jaccard(parts, params);
  EXPECT_DOUBLE_EQ(result.matrix.get(0, 1), 0.0);
  EXPECT_EQ(result.pairs_skipped, 1u);
}

TEST(DimsumTest, SinglePartitionTrivial) {
  std::vector<std::vector<std::uint64_t>> parts{iota_keys(0, 10)};
  const auto result = dimsum_jaccard(parts, DimsumParams{});
  EXPECT_EQ(result.matrix.size(), 1u);
  EXPECT_EQ(result.pairs_examined, 0u);
}

using Family = std::vector<std::vector<std::uint64_t>>;

/// Sorted, deduplicated copy of a key multiset.
std::vector<std::uint64_t> key_set(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// A CubeSorted site: Zipf-keyed records sorted and cut into slices of
/// 24, each slice's distinct keys. Slices inside one key's run, and the
/// slices either side of a run's end, share keys; the rest are disjoint.
Family cube_sorted_slices(std::uint64_t seed) {
  const ZipfSampler zipf(300, 1.1);
  Rng rng(seed);
  std::vector<std::uint64_t> records(1200);
  for (auto& key : records) key = mix64(zipf.sample(rng) + 1);
  std::sort(records.begin(), records.end());
  Family parts;
  for (std::size_t begin = 0; begin < records.size(); begin += 24) {
    const auto first = records.begin() + static_cast<std::ptrdiff_t>(begin);
    parts.push_back(key_set({first, first + 24}));
  }
  return parts;
}

/// Random subsets of a small key universe, so most ranges overlap.
Family overlapping_family(std::uint64_t seed) {
  Rng rng(seed);
  Family parts(30);
  for (auto& part : parts) {
    const std::size_t len = 1 + rng.below(60);
    for (std::size_t k = 0; k < len; ++k) part.push_back(rng.below(200));
    part = key_set(std::move(part));
  }
  return parts;
}

/// Runs of consecutive keys where each partition starts at the last key
/// of the one before (back_i == front_j), with empty partitions and
/// singletons between them.
Family touching_family() {
  Family parts;
  std::uint64_t from = 0;
  for (int p = 0; p < 16; ++p) {
    const std::uint64_t len = 1 + static_cast<std::uint64_t>(p % 5) * 3;
    parts.push_back(iota_keys(from, len));
    from += len - 1;
    if (p % 4 == 1) parts.emplace_back();
    if (p % 4 == 2) parts.push_back({from});
  }
  parts.emplace_back();
  return parts;
}

void expect_matches_oracle(const Family& parts, const DimsumParams& params) {
  const DimsumResult got = dimsum_jaccard(parts, params);
  const DimsumResult want = oracle::dimsum_jaccard(parts, params);
  EXPECT_EQ(got.pairs_examined, want.pairs_examined);
  EXPECT_EQ(got.pairs_skipped, want.pairs_skipped);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = 0; j < parts.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.matrix.get(i, j)),
                std::bit_cast<std::uint64_t>(want.matrix.get(i, j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

TEST(DimsumTest, MatchesScoreEveryPairOracle) {
  // dimsum_jaccard counts an examined pair with disjoint key ranges but
  // does not score it, and leaves its cell at +0.0. That is exact: the
  // exact Jaccard of disjoint sets is 0 / |union|, and a MinHash slot's
  // minimum is the hash of one key of its set under a bijection
  // (mix64(x ^ mix64(h + 1))), so disjoint sets agree in no slot and
  // estimate 0 / m. The oracle scores every examined pair, so the two
  // agree in every bit and both counts, including pairs that share only
  // a boundary key (back_i == front_j), which must still be scored.
  const std::vector<Family> families{
      cube_sorted_slices(1), cube_sorted_slices(2), overlapping_family(3),
      overlapping_family(4), touching_family()};
  for (const Family& parts : families) {
    for (const bool exact : {false, true}) {
      for (const double gamma : {0.5, 4.0, 1e9}) {
        SCOPED_TRACE(::testing::Message()
                     << parts.size() << " partitions, exact=" << exact
                     << ", gamma=" << gamma);
        DimsumParams params;
        params.exact = exact;
        params.gamma = gamma;
        params.seed = 17;
        expect_matches_oracle(parts, params);
      }
    }
  }
}

TEST(DimsumTest, RejectsKeysNotSortedAndDistinct) {
  const DimsumParams params;
  EXPECT_THROW(dimsum_jaccard(Family{{1, 2}, {3, 2}}, params),
               bohr::ContractViolation);
  EXPECT_THROW(dimsum_jaccard(Family{{1, 1, 2}, {3}}, params),
               bohr::ContractViolation);
  // One partition is still checked, though it has no pair to score.
  EXPECT_THROW(dimsum_jaccard(Family{{2, 1}}, params),
               bohr::ContractViolation);
  EXPECT_NO_THROW(dimsum_jaccard(Family{{}, {1}, {0, 5, 9}}, params));
}

TEST(KMeansTest, SeparatesTwoObviousClusters) {
  std::vector<std::vector<double>> points;
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)});
  }
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.normal(10.0, 0.1), rng.normal(10.0, 0.1)});
  }
  KMeansParams params;
  params.k = 2;
  const auto result = kmeans(points, params);
  // All of the first 20 share a cluster, all of the last 20 the other.
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
  for (int i = 21; i < 40; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[20]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[20]);
}

TEST(KMeansTest, KEqualsPointsGivesSingletons) {
  const std::vector<std::vector<double>> points{{0.0}, {1.0}, {2.0}};
  KMeansParams params;
  params.k = 3;
  const auto result = kmeans(points, params);
  EXPECT_EQ(result.assignments[0], 0u);
  EXPECT_EQ(result.assignments[1], 1u);
  EXPECT_EQ(result.assignments[2], 2u);
  EXPECT_DOUBLE_EQ(result.inertia, 0.0);
}

TEST(KMeansTest, KLargerThanPointsClamped) {
  const std::vector<std::vector<double>> points{{0.0}, {5.0}};
  KMeansParams params;
  params.k = 10;
  const auto result = kmeans(points, params);
  EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(KMeansTest, DeterministicForSeed) {
  std::vector<std::vector<double>> points;
  Rng rng(3);
  for (int i = 0; i < 30; ++i) points.push_back({rng.uniform(), rng.uniform()});
  KMeansParams params;
  params.k = 4;
  params.seed = 55;
  const auto a = kmeans(points, params);
  const auto b = kmeans(points, params);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  std::vector<std::vector<double>> points;
  Rng rng(29);
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  KMeansParams p2;
  p2.k = 2;
  KMeansParams p8;
  p8.k = 8;
  EXPECT_GE(kmeans(points, p2).inertia, kmeans(points, p8).inertia);
}

TEST(KMeansTest, EmptyPointsThrow) {
  EXPECT_THROW(kmeans({}, KMeansParams{}), bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::similarity
