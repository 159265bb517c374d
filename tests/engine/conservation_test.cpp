// Property tests: conservation laws the engine must obey regardless of
// configuration.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "engine/job_runner.h"

namespace bohr::engine {
namespace {

RecordStream random_stream(Rng& rng, std::size_t n, std::uint64_t universe) {
  RecordStream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back({rng.below(universe), rng.uniform(0.0, 10.0)});
  }
  return s;
}

TEST(ConservationTest, CombinerPreservesValueSum) {
  // Sum-combining must preserve the total value mass exactly.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const RecordStream in = random_stream(rng, 500, 50);
    double before = 0.0;
    for (const auto& kv : in) before += kv.value;
    const RecordStream out = combine(in, AggregateOp::Sum);
    double after = 0.0;
    for (const auto& kv : out) after += kv.value;
    EXPECT_NEAR(after, before, 1e-6);
  }
}

TEST(ConservationTest, LocalStagePreservesPerKeySums) {
  // The concatenated shuffle input must aggregate to the same per-key
  // totals as the raw input, for any partitioning/assignment.
  Rng data_rng(13);
  const RecordStream input = random_stream(data_rng, 1000, 64);
  std::unordered_map<std::uint64_t, double> truth;
  for (const auto& kv : input) truth[kv.key] += kv.value;

  for (const auto policy :
       {PartitionPolicy::ArrivalOrder, PartitionPolicy::CubeSorted}) {
    for (const auto assignment : {ExecutorAssignment::RoundRobin,
                                  ExecutorAssignment::SimilarityKMeans}) {
      const auto parts = make_partitions(input, 37, policy);
      MachineConfig cfg;
      cfg.executors = 3;
      Rng rng(7);
      const auto result = run_local_stage(parts, cfg, assignment,
                                          AggregateOp::Sum, 1.0, {}, rng);
      std::unordered_map<std::uint64_t, double> sums;
      for (const auto& kv : result.shuffle_input) sums[kv.key] += kv.value;
      ASSERT_EQ(sums.size(), truth.size());
      for (const auto& [key, total] : truth) {
        EXPECT_NEAR(sums.at(key), total, 1e-6);
      }
    }
  }
}

TEST(ConservationTest, PartitioningLosesNoRecords) {
  Rng rng(17);
  const RecordStream input = random_stream(rng, 777, 100);
  for (const std::size_t size : {1u, 13u, 100u, 10000u}) {
    const auto parts =
        make_partitions(input, size, PartitionPolicy::CubeSorted);
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    EXPECT_EQ(total, input.size()) << "partition size " << size;
  }
}

TEST(ConservationTest, WanBytesNeverExceedTotalShuffle) {
  // wan_shuffle_bytes <= sum of per-site f_i (equality only if every
  // reduce task sits on a remote site).
  const net::WanTopology topo = net::make_paper_topology(1e6);
  Rng data_rng(23);
  std::vector<RecordStream> inputs(topo.site_count());
  for (auto& in : inputs) in = random_stream(data_rng, 200, 64);
  std::vector<double> r(topo.site_count(),
                        1.0 / static_cast<double>(topo.site_count()));
  QuerySpec spec = default_spec_for(QueryKind::Aggregation);
  spec.selectivity = 1.0;
  JobConfig cfg;
  Rng rng(1);
  const auto result = run_job(topo, inputs, r, spec, cfg, rng);
  double total_shuffle_bytes = 0.0;
  for (const SiteJobMetrics& site : result.sites) {
    total_shuffle_bytes += site.shuffle_bytes;
  }
  EXPECT_LE(result.wan_shuffle_bytes, total_shuffle_bytes + 1e-6);
  EXPECT_GT(result.wan_shuffle_bytes, 0.0);
}

TEST(ConservationTest, QctIsAtLeastSlowestSiteFinish) {
  const net::WanTopology topo = net::make_paper_topology(1e6);
  Rng data_rng(29);
  std::vector<RecordStream> inputs(topo.site_count());
  for (auto& in : inputs) in = random_stream(data_rng, 100, 32);
  std::vector<double> r(topo.site_count(), 0.1);
  QuerySpec spec = default_spec_for(QueryKind::Udf);
  spec.selectivity = 1.0;
  JobConfig cfg;
  Rng rng(1);
  const auto result = run_job(topo, inputs, r, spec, cfg, rng);
  for (const auto& site : result.sites) {
    EXPECT_GE(result.qct_seconds + 1e-9, site.reduce_finish_seconds);
    EXPECT_GE(site.reduce_finish_seconds + 1e-9,
              site.shuffle_finish_seconds);
    EXPECT_GE(site.shuffle_finish_seconds + 1e-9,
              site.map_finish_seconds * (site.shuffle_records > 0 ? 1 : 0));
  }
}

}  // namespace
}  // namespace bohr::engine
