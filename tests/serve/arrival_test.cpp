#include "serve/arrival.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/check.h"
#include "serve/admission.h"

namespace bohr::serve {
namespace {

ArrivalConfig small_config() {
  ArrivalConfig cfg;
  cfg.tenants = 3;
  cfg.arrival_rate_qps = 5.0;
  cfg.duration_seconds = 40.0;
  cfg.seed = 11;
  return cfg;
}

TEST(ArrivalTest, TraceIsSortedAndSequenced) {
  const std::vector<std::size_t> types = {3, 3, 2, 5};
  const auto trace = generate_arrivals(small_config(), 4, types);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].seq, i);
    EXPECT_GE(trace[i].time, 0.0);
    EXPECT_LT(trace[i].time, 40.0);
    EXPECT_LT(trace[i].tenant, 3u);
    EXPECT_LT(trace[i].dataset, 4u);
    EXPECT_LT(trace[i].type_spec, types[trace[i].dataset]);
    EXPECT_GE(trace[i].work_scale, 1.0);
    EXPECT_LE(trace[i].work_scale, small_config().work_max);
    if (i > 0) {
      EXPECT_LE(trace[i - 1].time, trace[i].time);
    }
  }
}

TEST(ArrivalTest, SameSeedSameTrace) {
  const auto a = generate_arrivals(small_config(), 4, {3, 3, 2, 5});
  const auto b = generate_arrivals(small_config(), 4, {3, 3, 2, 5});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].dataset, b[i].dataset);
    EXPECT_EQ(a[i].type_spec, b[i].type_spec);
    EXPECT_EQ(a[i].work_scale, b[i].work_scale);
  }
  auto cfg = small_config();
  cfg.seed = 12;
  const auto c = generate_arrivals(cfg, 4, {3, 3, 2, 5});
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != c[i].time;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalTest, ArrivalCountTracksOfferedLoad) {
  // ~rate * duration * tenants in expectation; allow a wide band.
  const auto trace = generate_arrivals(small_config(), 2, {2, 2});
  const double expected = 5.0 * 40.0 * 3.0;
  EXPECT_GT(static_cast<double>(trace.size()), 0.5 * expected);
  EXPECT_LT(static_cast<double>(trace.size()), 1.5 * expected);
}

TEST(ArrivalTest, ExpectedCountJustAboveTheCapIsRejected) {
  // The whole trace is held in memory, so a config that expects more
  // than 10^6 arrivals is refused instead of generated.
  ArrivalConfig cfg = small_config();
  cfg.tenants = 4;
  cfg.arrival_rate_qps = 2.5;
  cfg.duration_seconds = 100000.001;  // 1,000,000.01 expected
  ASSERT_GT(cfg.expected_arrivals(), kMaxExpectedArrivals);
  EXPECT_THROW(generate_arrivals(cfg, 2, {2, 2}), ContractViolation);
}

TEST(ArrivalTest, DatasetPopularityIsSkewedPerTenant) {
  // With Zipf skew > 1 each tenant must favour its own rotated head
  // dataset over the tail.
  auto cfg = small_config();
  cfg.tenants = 2;
  cfg.duration_seconds = 400.0;
  cfg.dataset_skew = 1.4;
  const auto trace = generate_arrivals(cfg, 6, {2, 2, 2, 2, 2, 2});
  std::map<std::size_t, std::map<std::size_t, std::size_t>> counts;
  for (const auto& q : trace) ++counts[q.tenant][q.dataset];
  // Tenant t's head dataset is rank 0 rotated by t.
  EXPECT_GT(counts[0][0], counts[0][3]);
  EXPECT_GT(counts[1][1], counts[1][4]);
}

TEST(AdmissionTest, BatchesCloseOnSizeOrTimeout) {
  std::vector<QueryArrival> trace;
  const auto arrival = [&](double t, std::size_t tenant) {
    QueryArrival q;
    q.time = t;
    q.tenant = tenant;
    q.seq = trace.size();
    trace.push_back(q);
  };
  // Tenant 0: three quick queries fill a size-3 batch at t=0.2; a
  // fourth at t=5 opens a new batch that times out at 5 + 0.5.
  arrival(0.0, 0);
  arrival(0.1, 0);
  arrival(0.2, 0);
  arrival(5.0, 0);
  // Tenant 1: two queries 0.3 apart stay in one timeout-closed batch.
  arrival(1.0, 1);
  arrival(1.3, 1);

  BatchingPolicy policy;
  policy.max_batch = 3;
  policy.max_delay_seconds = 0.5;
  const auto batches = form_batches(trace, 2, policy);
  ASSERT_EQ(batches.size(), 3u);
  // Canonical order is by close time.
  EXPECT_EQ(batches[0].tenant, 0u);
  EXPECT_EQ(batches[0].queries.size(), 3u);
  EXPECT_DOUBLE_EQ(batches[0].close_time, 0.2);  // closed by size
  EXPECT_EQ(batches[1].tenant, 1u);
  EXPECT_EQ(batches[1].queries.size(), 2u);
  EXPECT_DOUBLE_EQ(batches[1].close_time, 1.5);  // closed by timeout
  EXPECT_EQ(batches[2].tenant, 0u);
  EXPECT_EQ(batches[2].queries.size(), 1u);
  EXPECT_DOUBLE_EQ(batches[2].close_time, 5.5);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].index, i);
  }
}

TEST(AdmissionTest, EveryQueryLandsInExactlyOneBatch) {
  const auto trace = generate_arrivals(small_config(), 4, {3, 3, 2, 5});
  BatchingPolicy policy;
  policy.max_batch = 4;
  policy.max_delay_seconds = 0.3;
  const auto batches = form_batches(trace, 3, policy);
  std::vector<bool> seen(trace.size(), false);
  for (const auto& b : batches) {
    EXPECT_GE(b.close_time, b.open_time);
    EXPECT_LE(b.queries.size(), policy.max_batch);
    for (const std::size_t qi : b.queries) {
      ASSERT_LT(qi, trace.size());
      EXPECT_FALSE(seen[qi]);
      seen[qi] = true;
      EXPECT_EQ(trace[qi].tenant, b.tenant);
      EXPECT_GE(trace[qi].time, b.open_time);
      EXPECT_LE(trace[qi].time, b.close_time + 1e-12);
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace bohr::serve
