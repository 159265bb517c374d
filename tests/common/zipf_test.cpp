#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace bohr {
namespace {

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.universe(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfTest, PmfSumsToOneAcrossSizesAndSkews) {
  // The old implementation derived pmf from cdf differences with the
  // last cdf entry pinned to 1.0, silently inflating pmf(n-1) by the
  // accumulated floating-point slack. The pmf now comes from the raw
  // weights, so the mass stays within 1e-12 even for large universes.
  // (Kahan summation here — at n=1e5 a naive test-side sum would itself
  // accumulate ~2e-12 of rounding and mask what is being measured.)
  for (const std::size_t n : {2u, 17u, 1000u, 100000u}) {
    for (const double s : {0.0, 0.5, 1.0, 1.7}) {
      ZipfSampler zipf(n, s);
      double total = 0.0;
      double carry = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double y = zipf.pmf(r) - carry;
        const double t = total + y;
        carry = (t - total) - y;
        total = t;
      }
      EXPECT_NEAR(total, 1.0, 1e-12) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfTest, PmfMatchesPowerLawRatios) {
  // pmf(i)/pmf(j) must equal ((j+1)/(i+1))^s exactly up to rounding —
  // in particular for the LAST rank, which the cdf-difference pmf got
  // wrong by absorbing the rounding guard's slack.
  const double s = 1.3;
  ZipfSampler zipf(257, s);
  for (const std::size_t r : {1u, 10u, 128u, 255u, 256u}) {
    const double expected = std::pow(static_cast<double>(r + 1), s);
    EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(r), expected, expected * 1e-12)
        << "rank " << r;
  }
}

TEST(ZipfTest, LastRankNotInflatedByRoundingGuard) {
  ZipfSampler zipf(5000, 1.0);
  // Monotone at the very tail: the guard on cdf.back() must not leak
  // into pmf(n-1).
  EXPECT_GE(zipf.pmf(4998), zipf.pmf(4999));
  const double ratio = zipf.pmf(4998) / zipf.pmf(4999);
  EXPECT_NEAR(ratio, 5000.0 / 4999.0, 1e-9);
}

TEST(ZipfTest, PmfIsMonotoneDecreasing) {
  ZipfSampler zipf(50, 0.9);
  for (std::size_t r = 1; r < zipf.universe(); ++r) {
    EXPECT_GE(zipf.pmf(r - 1), zipf.pmf(r));
  }
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
}

TEST(ZipfTest, SamplesWithinUniverse) {
  ZipfSampler zipf(42, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 42u);
}

TEST(ZipfTest, EmpiricalFrequencyMatchesPmf) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(77);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 5; ++r) {
    const double freq = static_cast<double>(counts[r]) / n;
    EXPECT_NEAR(freq, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

TEST(ZipfTest, SampleMatchesBinarySearchOverTheCdf) {
  // The guide table must return the rank std::lower_bound finds over the
  // CDF, draw for draw, from the same Rng words. The universes and skews
  // are the ones the generators and arrivals build, plus both sides of a
  // power of two; the largest go first, so a wrong rank fails before a
  // one-rank universe could be overrun.
  const std::size_t sizes[] = {32000, 20000, 12288, 3840, 1025, 1024,
                               1023,  32,    12,    3,    2,    1};
  const double skews[] = {0.0, 0.8, 1.0, 1.1, 1.3, 1.6};
  constexpr int kDrawsPerCase = 16384;  // 12 x 6 x 16,384 = 1,179,648
  Rng rng(2024);
  Rng twin(2024);
  for (const std::size_t n : sizes) {
    for (const double s : skews) {
      const ZipfSampler zipf(n, s);
      // The CDF exactly as the constructor builds it: a running sum of
      // the pmf, with the last entry pinned to 1.
      std::vector<double> cdf(n);
      double cumulative = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        cumulative += zipf.pmf(r);
        cdf[r] = cumulative;
      }
      cdf.back() = 1.0;
      for (int i = 0; i < kDrawsPerCase; ++i) {
        const std::size_t got = zipf.sample(rng);
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), twin.uniform()) -
            cdf.begin());
        ASSERT_EQ(got, want) << "n=" << n << " s=" << s << " draw " << i;
      }
    }
  }
  EXPECT_TRUE(rng.state() == twin.state());
}

TEST(ZipfTest, HighSkewConcentratesMass) {
  ZipfSampler zipf(1000, 2.0);
  // With s=2 the head rank should hold the majority of the mass.
  EXPECT_GT(zipf.pmf(0), 0.5);
}

TEST(ZipfTest, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), ContractViolation);
  EXPECT_THROW(ZipfSampler(10, -0.5), ContractViolation);
}

}  // namespace
}  // namespace bohr
