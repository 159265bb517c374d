#include "common/latency.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"

namespace bohr {
namespace {

TEST(LatencyRecorderTest, EmptySummaryIsZero) {
  const LatencyRecorder rec;
  const LatencySummary s = rec.summarize(10.0);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.throughput_qps, 0.0);
  EXPECT_EQ(s.p50_seconds, 0.0);
  EXPECT_EQ(s.p99_seconds, 0.0);
  EXPECT_EQ(s.max_seconds, 0.0);
  EXPECT_EQ(rec.digest(), 0u);
}

TEST(LatencyRecorderTest, PercentilesAndThroughput) {
  LatencyRecorder rec;
  // 1..100: p50 = 50.5, p95 = 95.05, p99 = 99.01 (linear interpolation
  // between closest ranks), max = 100.
  for (int i = 1; i <= 100; ++i) rec.add(static_cast<double>(i));
  const LatencySummary s = rec.summarize(50.0);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.throughput_qps, 2.0);
  EXPECT_NEAR(s.p50_seconds, 50.5, 1e-12);
  EXPECT_NEAR(s.p95_seconds, 95.05, 1e-12);
  EXPECT_NEAR(s.p99_seconds, 99.01, 1e-12);
  EXPECT_DOUBLE_EQ(s.max_seconds, 100.0);
  EXPECT_NEAR(s.mean_seconds, 50.5, 1e-12);
}

TEST(LatencyRecorderTest, InsertionOrderDefinesDigest) {
  LatencyRecorder a, b, c;
  a.add(1.0);
  a.add(2.0);
  b.add(1.0);
  b.add(2.0);
  c.add(2.0);
  c.add(1.0);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(LatencyRecorderTest, MergePoolsSamplesByCount) {
  // A 3-sample recorder and a 1-sample recorder pool 3:1 — the mean is
  // the per-sample mean, not the mean of the two means.
  LatencyRecorder big, small;
  big.add(10.0);
  big.add(10.0);
  big.add(10.0);
  small.add(50.0);
  LatencyRecorder pooled = big;
  pooled.merge(small);
  EXPECT_EQ(pooled.count(), 4u);
  EXPECT_NEAR(pooled.mean(), 20.0, 1e-12);  // (30 + 50) / 4, not 30
  EXPECT_DOUBLE_EQ(pooled.stats().max(), 50.0);
}

TEST(LatencyRecorderTest, SerializeRoundTripsDigest) {
  LatencyRecorder rec;
  rec.add(0.125);
  rec.add(3.5);
  rec.add(1e-9);
  const LatencyRecorder back = LatencyRecorder::deserialize(rec.serialize());
  EXPECT_EQ(back.count(), rec.count());
  EXPECT_EQ(back.digest(), rec.digest());
  EXPECT_EQ(back.samples(), rec.samples());
  EXPECT_NEAR(back.mean(), rec.mean(), 1e-15);
}

TEST(LatencyRecorderTest, DeserializeRejectsTruncatedImage) {
  LatencyRecorder rec;
  rec.add(1.0);
  std::string image = rec.serialize();
  image.pop_back();
  EXPECT_THROW(LatencyRecorder::deserialize(image), ContractViolation);

  // A bare header claiming 2^61 samples: 8 + n * 8 wraps to 8.
  std::string huge(8, '\0');
  const std::uint64_t n = std::uint64_t{1} << 61;
  std::memcpy(huge.data(), &n, sizeof(n));
  EXPECT_THROW(LatencyRecorder::deserialize(huge), ContractViolation);
}

}  // namespace
}  // namespace bohr
