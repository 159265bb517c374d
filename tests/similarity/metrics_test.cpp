#include "similarity/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "jaccard_oracle.h"
#include "similarity/minhash.h"

namespace bohr::similarity {
namespace {

TEST(JaccardTest, IdenticalSetsAreOne) {
  const std::vector<std::uint64_t> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard(xs, xs), 1.0);
}

TEST(JaccardTest, DisjointSetsAreZero) {
  const std::vector<std::uint64_t> xs{1, 2};
  const std::vector<std::uint64_t> ys{3, 4};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  const std::vector<std::uint64_t> xs{1, 2, 3};
  const std::vector<std::uint64_t> ys{2, 3, 4};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 0.5);  // |{2,3}| / |{1,2,3,4}|
}

TEST(JaccardTest, DuplicatesTreatedAsSet) {
  const std::vector<std::uint64_t> xs{1, 1, 1, 2};
  const std::vector<std::uint64_t> ys{1, 2, 2};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 1.0);
}

TEST(JaccardTest, BothEmptyIsZero) {
  EXPECT_DOUBLE_EQ(jaccard({}, {}), 0.0);
}

TEST(JaccardTest, IsSymmetric) {
  const std::vector<std::uint64_t> xs{1, 5, 9, 12};
  const std::vector<std::uint64_t> ys{5, 12, 40};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), jaccard(ys, xs));
}

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  const std::vector<std::uint64_t> keys{10, 20, 30, 40};
  const auto a = MinHashSignature::of(keys, 64);
  const auto b = MinHashSignature::of(keys, 64);
  EXPECT_DOUBLE_EQ(a.estimate_jaccard(b), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  std::vector<std::uint64_t> xs;
  std::vector<std::uint64_t> ys;
  for (std::uint64_t i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(1000 + i);
  }
  const auto a = MinHashSignature::of(xs, 128);
  const auto b = MinHashSignature::of(ys, 128);
  EXPECT_LT(a.estimate_jaccard(b), 0.05);
}

TEST(MinHashTest, DisjointSetsAgreeInNoSlot) {
  // Each slot's minimum is the hash of one key of its set, and the slot
  // hash is a bijection, so two disjoint sets never share a slot value
  // and estimate exactly +0.0. DIMSUM leaves such pairs unscored.
  Rng rng(33);
  for (const std::size_t hashes : {std::size_t{32}, std::size_t{256}}) {
    for (int trial = 0; trial < 300; ++trial) {
      // Consecutive small keys, dealt to the two sides at random.
      std::vector<std::uint64_t> xs;
      std::vector<std::uint64_t> ys;
      const std::uint64_t from = rng.below(1000);
      const std::uint64_t count = 2 + rng.below(80);
      for (std::uint64_t k = from; k < from + count; ++k) {
        (rng.bernoulli(0.5) ? xs : ys).push_back(k);
      }
      if (xs.empty() || ys.empty()) continue;
      const auto a = MinHashSignature::of(xs, hashes);
      const auto b = MinHashSignature::of(ys, hashes);
      for (std::size_t h = 0; h < hashes; ++h) {
        ASSERT_NE(a.min_at(h), b.min_at(h)) << "slot " << h;
      }
      const double estimate = a.estimate_jaccard(b);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate), 0u);
    }
  }
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  // 50% overlap: J = 50 / 150 = 1/3.
  std::vector<std::uint64_t> xs;
  std::vector<std::uint64_t> ys;
  for (std::uint64_t i = 0; i < 100; ++i) xs.push_back(i);
  for (std::uint64_t i = 50; i < 150; ++i) ys.push_back(i);
  const double truth = jaccard(xs, ys);
  const auto a = MinHashSignature::of(xs, 256);
  const auto b = MinHashSignature::of(ys, 256);
  EXPECT_NEAR(a.estimate_jaccard(b), truth, 0.08);
}

TEST(MinHashTest, StreamingEqualsBatch) {
  const std::vector<std::uint64_t> keys{5, 6, 7};
  MinHashSignature streaming(32);
  for (const auto k : keys) streaming.add(k);
  const auto batch = MinHashSignature::of(keys, 32);
  EXPECT_DOUBLE_EQ(streaming.estimate_jaccard(batch), 1.0);
}

TEST(MinHashTest, EmptySignatureEstimatesZero) {
  const MinHashSignature empty(16);
  const auto full = MinHashSignature::of(std::vector<std::uint64_t>{1}, 16);
  EXPECT_DOUBLE_EQ(empty.estimate_jaccard(full), 0.0);
}

TEST(MinHashTest, LengthMismatchThrows) {
  const MinHashSignature a(16);
  const MinHashSignature b(32);
  EXPECT_THROW(a.estimate_jaccard(b), bohr::ContractViolation);
}

TEST(JaccardSortedTest, MatchesHashedJaccardOnRandomSets) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint64_t> xs;
    std::vector<std::uint64_t> ys;
    for (std::uint64_t k = 0; k < 200; ++k) {
      if (rng.bernoulli(0.3)) xs.push_back(k);
      if (rng.bernoulli(0.3)) ys.push_back(k);
    }
    // Inputs are sorted and unique by construction.
    EXPECT_DOUBLE_EQ(jaccard_sorted(xs, ys), jaccard(xs, ys));
  }
  EXPECT_DOUBLE_EQ(jaccard_sorted({}, {}), 0.0);
  const std::vector<std::uint64_t> only{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard_sorted(only, {}), 0.0);
}

}  // namespace
}  // namespace bohr::similarity
