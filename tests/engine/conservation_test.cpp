// Property tests: conservation laws the engine must obey regardless of
// configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "engine/job_runner.h"

namespace bohr::engine {
namespace {

RecordStream random_stream(Rng& rng, std::size_t n, std::uint64_t universe) {
  RecordStream s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(rng.below(universe));
  return s;
}

/// What run_local_stage must report for `partitions`, counted with
/// std::set under the executor assignment the stage chose: the combined
/// (or, with the combiner off, raw) record count, the keys held by more
/// than one executor, and the slowest executor's map-plus-merge time
/// after `rdd_check_seconds` (stragglers off).
struct SetOracle {
  std::size_t shuffle_records = 0;
  std::size_t exchanged_records = 0;
  double stage_seconds = 0.0;
};

SetOracle set_oracle(const std::vector<RecordStream>& partitions,
                     const std::vector<std::size_t>& executor_of_partition,
                     const MachineConfig& cfg, double compute_multiplier,
                     double rdd_check_seconds) {
  SetOracle out;
  std::vector<std::set<std::uint64_t>> executor_keys(cfg.executors);
  std::vector<std::size_t> executor_records(cfg.executors, 0);
  std::set<std::uint64_t> all_keys;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const std::set<std::uint64_t> keys(partitions[p].begin(),
                                       partitions[p].end());
    out.shuffle_records +=
        cfg.combiner_enabled ? keys.size() : partitions[p].size();
    const std::size_t e = executor_of_partition[p];
    executor_keys[e].insert(keys.begin(), keys.end());
    executor_records[e] += partitions[p].size();
    all_keys.insert(keys.begin(), keys.end());
  }
  std::size_t held = 0;
  double slowest = 0.0;
  for (std::size_t e = 0; e < cfg.executors; ++e) {
    held += executor_keys[e].size();
    const double map_t = static_cast<double>(executor_records[e]) *
                         cfg.record_scale * compute_multiplier /
                         cfg.map_records_per_sec;
    const double merge_t = static_cast<double>(executor_keys[e].size()) *
                           cfg.record_scale / cfg.merge_records_per_sec;
    slowest = std::max(slowest, map_t + merge_t);
  }
  out.exchanged_records = held - all_keys.size();
  out.stage_seconds = rdd_check_seconds + slowest;
  return out;
}

TEST(ConservationTest, LocalStageMatchesSetOracle) {
  // Random streams over small and large key universes, so keys repeat
  // within partitions, across partitions and across executors.
  Rng data_rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 200 + data_rng.below(600);
    const std::uint64_t universe = 8 + data_rng.below(300);
    const RecordStream input = random_stream(data_rng, n, universe);
    for (const auto policy :
         {PartitionPolicy::ArrivalOrder, PartitionPolicy::CubeSorted}) {
      const auto parts = make_partitions(input, 29, policy);
      for (const auto assignment : {ExecutorAssignment::RoundRobin,
                                    ExecutorAssignment::SimilarityKMeans}) {
        for (const bool combiner : {true, false}) {
          for (const std::size_t executors : {1u, 2u, 3u, 5u}) {
            SCOPED_TRACE(::testing::Message()
                         << "trial " << trial << " policy "
                         << static_cast<int>(policy) << " assignment "
                         << static_cast<int>(assignment) << " combiner "
                         << combiner << " executors " << executors);
            MachineConfig cfg;
            cfg.executors = executors;
            cfg.combiner_enabled = combiner;
            cfg.record_scale = 3.0;
            Rng rng(7 + trial);
            const auto result =
                run_local_stage(parts, cfg, assignment, 1.5, {}, rng);
            ASSERT_EQ(result.executor_of_partition.size(), parts.size());
            const SetOracle want =
                set_oracle(parts, result.executor_of_partition, cfg, 1.5,
                           result.rdd_check_seconds);
            EXPECT_EQ(result.shuffle_records, want.shuffle_records);
            EXPECT_EQ(result.exchanged_records, want.exchanged_records);
            EXPECT_DOUBLE_EQ(result.stage_seconds, want.stage_seconds);
          }
        }
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
