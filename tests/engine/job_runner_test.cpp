#include "engine/job_runner.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace bohr::engine {
namespace {

net::WanTopology two_site_topo() {
  return net::WanTopology(
      {net::Site{"A", 100.0, 100.0}, net::Site{"B", 100.0, 100.0}});
}

JobConfig fast_config() {
  JobConfig cfg;
  cfg.machine.executors = 2;
  cfg.machine.map_records_per_sec = 1e6;
  cfg.machine.merge_records_per_sec = 1e7;
  cfg.reduce_records_per_sec = 1e6;
  cfg.partition_records = 8;
  return cfg;
}

QuerySpec sum_spec(double bytes_per_record = 10.0) {
  QuerySpec spec = default_spec_for(QueryKind::Aggregation);
  spec.selectivity = 1.0;
  spec.intermediate_bytes_per_record = bytes_per_record;
  return spec;
}

RecordStream unique_records(std::uint64_t base, std::size_t count) {
  RecordStream s;
  for (std::size_t i = 0; i < count; ++i) s.push_back(base + i);
  return s;
}

TEST(JobRunnerTest, UniqueKeysProduceFullShuffle) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 20),
                                         unique_records(1000, 20)};
  Rng rng(1);
  const auto result =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng);
  EXPECT_EQ(result.sites[0].shuffle_records, 20u);
  EXPECT_EQ(result.sites[1].shuffle_records, 20u);
  EXPECT_DOUBLE_EQ(result.sites[0].shuffle_bytes, 200.0);
  EXPECT_GT(result.qct_seconds, 0.0);
}

TEST(JobRunnerTest, CombinableKeysShrinkShuffle) {
  // All records share one key: per-partition combine collapses each
  // 8-record partition to one record.
  const auto topo = two_site_topo();
  RecordStream same;
  for (int i = 0; i < 16; ++i) same.push_back(42);
  const std::vector<RecordStream> inputs{same, {}};
  Rng rng(1);
  const auto result =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng);
  EXPECT_EQ(result.sites[0].shuffle_records, 2u);  // 16 records / 8 per part
}

TEST(JobRunnerTest, CubeSortedBeatsArrivalOrderOnInterleavedKeys) {
  const auto topo = two_site_topo();
  RecordStream interleaved;
  for (std::uint64_t i = 0; i < 64; ++i) interleaved.push_back(i % 16);
  const std::vector<RecordStream> inputs{interleaved, {}};
  JobConfig arrival = fast_config();
  arrival.partition_policy = PartitionPolicy::ArrivalOrder;
  JobConfig sorted = fast_config();
  sorted.partition_policy = PartitionPolicy::CubeSorted;
  Rng rng_a(1);
  Rng rng_b(1);
  const auto res_arrival =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), arrival, rng_a);
  const auto res_sorted =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), sorted, rng_b);
  EXPECT_LT(res_sorted.sites[0].shuffle_records,
            res_arrival.sites[0].shuffle_records);
}

TEST(JobRunnerTest, ReducePlacementControlsWanBytes) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 32), {}};
  Rng rng_a(1);
  Rng rng_b(1);
  // All reduce tasks at the data site: nothing crosses the WAN.
  const auto local =
      run_job(topo, inputs, {1.0, 0.0}, sum_spec(), fast_config(), rng_a);
  EXPECT_DOUBLE_EQ(local.wan_shuffle_bytes, 0.0);
  // All reduce at the other site: everything crosses.
  const auto remote =
      run_job(topo, inputs, {0.0, 1.0}, sum_spec(), fast_config(), rng_b);
  EXPECT_DOUBLE_EQ(remote.wan_shuffle_bytes, 320.0);
  EXPECT_GT(remote.qct_seconds, local.qct_seconds);
}

TEST(JobRunnerTest, ControllerOverheadAddsToQct) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 8), {}};
  JobConfig plain = fast_config();
  JobConfig loaded = fast_config();
  loaded.controller_overhead_seconds = 1.5;
  Rng rng_a(1);
  Rng rng_b(1);
  const auto a = run_job(topo, inputs, {0.5, 0.5}, sum_spec(), plain, rng_a);
  const auto b = run_job(topo, inputs, {0.5, 0.5}, sum_spec(), loaded, rng_b);
  EXPECT_NEAR(b.qct_seconds - a.qct_seconds, 1.5, 1e-9);
}

TEST(JobRunnerTest, ReduceFractionsMustSumToOne) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{{}, {}};
  Rng rng(1);
  EXPECT_THROW(
      run_job(topo, inputs, {0.3, 0.3}, sum_spec(), fast_config(), rng),
      bohr::ContractViolation);
}

TEST(JobRunnerTest, EmptyInputsZeroShuffle) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{{}, {}};
  Rng rng(1);
  const auto result =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng);
  for (const SiteJobMetrics& site : result.sites) {
    EXPECT_DOUBLE_EQ(site.shuffle_bytes, 0.0);
  }
  EXPECT_DOUBLE_EQ(result.wan_shuffle_bytes, 0.0);
}

TEST(JobRunnerTest, SlowUplinkStretchesQct) {
  // Same data, but the sender's uplink is 10x slower in topo_b.
  const net::WanTopology fast_topo(
      {net::Site{"A", 1000.0, 1000.0}, net::Site{"B", 1000.0, 1000.0}});
  const net::WanTopology slow_topo(
      {net::Site{"A", 10.0, 1000.0}, net::Site{"B", 1000.0, 1000.0}});
  const std::vector<RecordStream> inputs{unique_records(0, 64), {}};
  Rng rng_a(1);
  Rng rng_b(1);
  const auto fast =
      run_job(fast_topo, inputs, {0.0, 1.0}, sum_spec(), fast_config(), rng_a);
  const auto slow =
      run_job(slow_topo, inputs, {0.0, 1.0}, sum_spec(), fast_config(), rng_b);
  EXPECT_GT(slow.qct_seconds, fast.qct_seconds);
}

TEST(JobRunnerTest, QuerySpecDefaultsAreSane) {
  for (const QueryKind kind :
       {QueryKind::Scan, QueryKind::Udf, QueryKind::Aggregation,
        QueryKind::OlapSql, QueryKind::TraceJob}) {
    const QuerySpec spec = default_spec_for(kind);
    EXPECT_GT(spec.selectivity, 0.0);
    EXPECT_LE(spec.selectivity, 1.0);
    EXPECT_GT(spec.compute_multiplier, 0.0);
    EXPECT_GT(spec.intermediate_bytes_per_record, 0.0);
    EXPECT_FALSE(to_string(kind).empty());
  }
  // UDF must cost more than scan (it computes PageRank).
  EXPECT_GT(default_spec_for(QueryKind::Udf).compute_multiplier,
            default_spec_for(QueryKind::Scan).compute_multiplier);
}

TEST(JobRunnerTest, ValidatesMachineConfig) {
  JobConfig bad = fast_config();
  bad.machine.straggler_probability = 2.0;
  Rng rng(1);
  EXPECT_THROW(run_job(two_site_topo(), {unique_records(0, 8), {}},
                       {0.5, 0.5}, sum_spec(), bad, rng),
               bohr::ContractViolation);
}

// ---------------------------------------------------------------------------
// Bucket-granular reduce (elastic migration's execution layer).

TEST(JobRunnerTest, BucketMapMatchesFractionPathWhenAligned) {
  // A bucket map quantizing {0.5, 0.5} into 8 buckets implies the exact
  // same per-site reduce work: identical QCT, bit for bit.
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 20),
                                         unique_records(1000, 20)};
  Rng rng_a(1);
  const auto plain = run_job(topo, inputs, {0.5, 0.5}, sum_spec(),
                             fast_config(), rng_a);
  const auto buckets = ReduceBucketMap::from_fractions({0.5, 0.5}, 8);
  JobConfig bucketed = fast_config();
  bucketed.reduce_buckets = &buckets;
  Rng rng_b(1);
  const auto with_map =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), bucketed, rng_b);
  EXPECT_DOUBLE_EQ(with_map.qct_seconds, plain.qct_seconds);
  EXPECT_DOUBLE_EQ(with_map.wan_shuffle_bytes, plain.wan_shuffle_bytes);
  EXPECT_EQ(with_map.reduce_speculations, 0u);
}

TEST(JobRunnerTest, BucketMapOverridesFractionArgument) {
  // All buckets on site 0: site 1 does no reduce work even though the
  // fractions argument says 50/50 — ownership is the source of truth.
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 20),
                                         unique_records(1000, 20)};
  const auto buckets = ReduceBucketMap::from_fractions({1.0, 0.0}, 8);
  JobConfig cfg = fast_config();
  cfg.reduce_buckets = &buckets;
  Rng rng(1);
  const auto result = run_job(topo, inputs, {0.5, 0.5}, sum_spec(), cfg, rng);
  EXPECT_GT(result.sites[0].reduce_finish_seconds,
            result.sites[0].shuffle_finish_seconds);
  EXPECT_DOUBLE_EQ(result.sites[1].reduce_finish_seconds,
                   result.sites[1].shuffle_finish_seconds);
}

TEST(JobRunnerTest, BucketSpeculationCapsASlowedSite) {
  // Site 1 computes 40x slow during reduce and reduce dominates (slow
  // reducers): its buckets blow past the cap and are re-executed,
  // landing the QCT at the capped estimate instead of 40x.
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 20),
                                         unique_records(1000, 20)};
  net::FaultPlan plan;
  plan.slowdowns.push_back(net::SiteSlowdown{1, 0.0, 1.0e9, 40.0});
  const auto buckets = ReduceBucketMap::from_fractions({0.5, 0.5}, 8);
  JobConfig slow = fast_config();
  slow.reduce_records_per_sec = 100.0;  // reduce-heavy
  slow.faults = &plan;
  slow.reduce_buckets = &buckets;

  Rng rng_a(1);
  const auto native = run_job(topo, inputs, {0.5, 0.5}, sum_spec(), slow,
                              rng_a);
  EXPECT_EQ(native.reduce_speculations, 0u);
  EXPECT_DOUBLE_EQ(native.max_reduce_slowdown, 40.0);

  JobConfig speculate = slow;
  speculate.bucket_speculation = true;
  Rng rng_b(1);
  const auto capped = run_job(topo, inputs, {0.5, 0.5}, sum_spec(),
                              speculate, rng_b);
  EXPECT_GT(capped.reduce_speculations, 0u);
  EXPECT_LT(capped.qct_seconds, native.qct_seconds);
  // The capped QCT is bounded by cap x (slowest healthy shuffle + one
  // bucket), never by the 40x native chain.
  const double bucket_t = capped.sites[0].reduce_finish_seconds -
                          capped.sites[0].shuffle_finish_seconds;
  const double healthy_shuffle = capped.sites[0].shuffle_finish_seconds;
  EXPECT_LE(capped.qct_seconds,
            speculate.bucket_speculation_cap *
                    (healthy_shuffle + bucket_t) +
                1e-9);
}

TEST(JobRunnerTest, SpeculationIsIdleWithoutSlowdowns) {
  // With no slow-site windows the speculation machinery must be inert:
  // same QCT as the plain bucket path, zero speculations.
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 20),
                                         unique_records(1000, 20)};
  const auto buckets = ReduceBucketMap::from_fractions({0.5, 0.5}, 8);
  JobConfig cfg = fast_config();
  cfg.reduce_buckets = &buckets;
  Rng rng_a(1);
  const auto plain = run_job(topo, inputs, {0.5, 0.5}, sum_spec(), cfg,
                             rng_a);
  JobConfig spec = cfg;
  spec.bucket_speculation = true;
  Rng rng_b(1);
  const auto with_spec =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), spec, rng_b);
  EXPECT_DOUBLE_EQ(with_spec.qct_seconds, plain.qct_seconds);
  EXPECT_EQ(with_spec.reduce_speculations, 0u);
  EXPECT_DOUBLE_EQ(with_spec.max_reduce_slowdown, 1.0);
}

TEST(JobRunnerTest, InfiniteReduceDeadlineIsInert) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 40),
                                         unique_records(1000, 40)};
  Rng rng(1);
  const auto result =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng);
  EXPECT_FALSE(result.reduce_partial);
  EXPECT_EQ(result.reduce_buckets_dropped, 0u);
  EXPECT_DOUBLE_EQ(result.reduce_dropped_fraction, 0.0);
}

TEST(JobRunnerTest, LooseReduceDeadlineMatchesUnbounded) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 40),
                                         unique_records(1000, 40)};
  Rng rng_a(1);
  const auto unbounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng_a);
  JobConfig loose = fast_config();
  loose.reduce_deadline_seconds = unbounded.qct_seconds * 10.0;
  Rng rng_b(1);
  const auto bounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), loose, rng_b);
  EXPECT_FALSE(bounded.reduce_partial);
  EXPECT_DOUBLE_EQ(bounded.qct_seconds, unbounded.qct_seconds);
}

TEST(JobRunnerTest, TightReduceDeadlineClosesPartial) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 40),
                                         unique_records(1000, 40)};
  Rng rng_a(1);
  const auto unbounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), fast_config(), rng_a);
  JobConfig tight = fast_config();
  tight.reduce_deadline_seconds = unbounded.qct_seconds * 0.5;
  Rng rng_b(1);
  const auto bounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), tight, rng_b);
  EXPECT_TRUE(bounded.reduce_partial);
  EXPECT_GT(bounded.reduce_dropped_fraction, 0.0);
  EXPECT_LE(bounded.reduce_dropped_fraction, 1.0);
  EXPECT_LE(bounded.qct_seconds, tight.reduce_deadline_seconds + 1e-9);
}

TEST(JobRunnerTest, BucketPathDropsLateBucketsUnderDeadline) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 40),
                                         unique_records(1000, 40)};
  const auto buckets = ReduceBucketMap::from_fractions({0.5, 0.5}, 8);
  JobConfig cfg = fast_config();
  cfg.reduce_buckets = &buckets;
  Rng rng_a(1);
  const auto unbounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), cfg, rng_a);
  JobConfig tight = cfg;
  tight.reduce_deadline_seconds = unbounded.qct_seconds * 0.5;
  Rng rng_b(1);
  const auto bounded =
      run_job(topo, inputs, {0.5, 0.5}, sum_spec(), tight, rng_b);
  EXPECT_TRUE(bounded.reduce_partial);
  EXPECT_GT(bounded.reduce_buckets_dropped, 0u);
  EXPECT_LE(bounded.reduce_buckets_dropped, 8u);
  EXPECT_DOUBLE_EQ(bounded.reduce_dropped_fraction,
                   static_cast<double>(bounded.reduce_buckets_dropped) / 8.0);
  EXPECT_LE(bounded.qct_seconds, tight.reduce_deadline_seconds + 1e-9);
}

TEST(JobRunnerTest, NonPositiveReduceDeadlineThrows) {
  const auto topo = two_site_topo();
  const std::vector<RecordStream> inputs{unique_records(0, 8), {}};
  JobConfig cfg = fast_config();
  cfg.reduce_deadline_seconds = 0.0;
  Rng rng(1);
  EXPECT_THROW(run_job(topo, inputs, {0.5, 0.5}, sum_spec(), cfg, rng),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
