// The parallel runtime's contract: every observable result is
// bit-identical for --threads 1, 2, and 8 (and identical to the
// historical serial code, which the 1-thread path executes verbatim).
// Each suite runs the same computation at the three thread counts and
// compares outputs with exact (bitwise-on-doubles) equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/placement.h"
#include "core/similarity_service.h"
#include "net/faults.h"
#include "similarity/dimsum.h"
#include "similarity/kmeans.h"
#include "workload/query_mix.h"
#include "job_results.h"
#include "rows_crc.h"

namespace bohr::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(1); }
};

template <typename Fn>
auto results_per_thread_count(Fn&& fn) {
  std::vector<decltype(fn())> results;
  for (const std::size_t threads : kThreadCounts) {
    set_thread_count(threads);
    results.push_back(fn());
  }
  return results;
}

/// 24 partitions of 40-119 draws from 300 keys, each held as its sorted
/// distinct keys, as dimsum_jaccard takes them.
std::vector<std::vector<std::uint64_t>> synthetic_partitions() {
  Rng rng(99);
  std::vector<std::vector<std::uint64_t>> parts(24);
  for (auto& part : parts) {
    const std::size_t len = 40 + rng.below(80);
    for (std::size_t r = 0; r < len; ++r) part.push_back(rng.below(300));
    std::sort(part.begin(), part.end());
    part.erase(std::unique(part.begin(), part.end()), part.end());
  }
  return parts;
}

TEST_F(DeterminismTest, SimilarityMatrixBitIdentical) {
  const auto parts = synthetic_partitions();
  similarity::DimsumParams params;
  params.seed = 7;
  const auto runs = results_per_thread_count(
      [&] { return similarity::dimsum_jaccard(parts, params); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].pairs_examined, runs[0].pairs_examined);
    EXPECT_EQ(runs[r].pairs_skipped, runs[0].pairs_skipped);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(runs[r].matrix.row(i), runs[0].matrix.row(i))
          << "row " << i << " at " << kThreadCounts[r] << " threads";
    }
  }
}

TEST_F(DeterminismTest, KMeansLabelsBitIdentical) {
  Rng rng(5);
  std::vector<std::vector<double>> points(60, std::vector<double>(8));
  for (auto& p : points) {
    for (auto& x : p) x = rng.uniform();
  }
  similarity::KMeansParams params;
  params.k = 6;
  params.seed = 11;
  const auto runs = results_per_thread_count(
      [&] { return similarity::kmeans(points, params); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].assignments, runs[0].assignments);
    EXPECT_EQ(runs[r].centroids, runs[0].centroids);
    EXPECT_EQ(runs[r].inertia, runs[0].inertia);
    EXPECT_EQ(runs[r].iterations, runs[0].iterations);
  }
}

PlacementProblem lp_problem() {
  PlacementProblem p;
  p.topology = net::make_paper_topology(100.0);
  p.lag_seconds = 30.0;
  Rng rng(17);
  for (std::size_t a = 0; a < 6; ++a) {
    DatasetPlacementInput d;
    d.dataset_id = a;
    d.reduction_ratio = rng.uniform(0.1, 0.6);
    d.query_count = static_cast<std::size_t>(rng.range(2, 10));
    for (std::size_t i = 0; i < p.topology.site_count(); ++i) {
      d.input_bytes.push_back(rng.uniform(100.0, 2000.0));
      d.self_similarity.push_back(rng.uniform(0.2, 0.8));
    }
    p.datasets.push_back(std::move(d));
  }
  return p;
}

TEST_F(DeterminismTest, JointLpObjectiveBitIdentical) {
  const auto problem = lp_problem();
  const auto runs = results_per_thread_count(
      [&] { return joint_lp_placement(problem); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].predicted_shuffle_seconds,
              runs[0].predicted_shuffle_seconds);
    EXPECT_EQ(runs[r].move_bytes, runs[0].move_bytes);
    EXPECT_EQ(runs[r].reduce_fractions, runs[0].reduce_fractions);
    EXPECT_EQ(runs[r].lp_iterations, runs[0].lp_iterations);
  }
}

TEST_F(DeterminismTest, IridiumPlacementBitIdentical) {
  const auto problem = lp_problem();
  const auto runs = results_per_thread_count(
      [&] { return iridium_placement(problem); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].predicted_shuffle_seconds,
              runs[0].predicted_shuffle_seconds);
    EXPECT_EQ(runs[r].move_bytes, runs[0].move_bytes);
    EXPECT_EQ(runs[r].reduce_fractions, runs[0].reduce_fractions);
  }
}

ExperimentConfig e2e_config() {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 4;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 160;
  cfg.generator.gb_per_site = 40.0 / 4.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 5;
  return cfg;
}

void expect_payloads_equal(const WorkloadRun& a, const WorkloadRun& b,
                           Strategy strategy) {
  // QCT embeds measured LP wall-clock (§8.5) amortized over queries, so
  // the simulated payloads carry the bitwise assertion; qct_by_kind keys
  // (which queries ran) must still agree.
  EXPECT_EQ(a.outcome(strategy).site_shuffle_bytes,
            b.outcome(strategy).site_shuffle_bytes);
  EXPECT_EQ(a.outcome(strategy).wan_shuffle_bytes,
            b.outcome(strategy).wan_shuffle_bytes);
  EXPECT_EQ(a.mean_data_reduction_percent(strategy),
            b.mean_data_reduction_percent(strategy));
  EXPECT_EQ(a.outcome(strategy).qct_by_kind.size(),
            b.outcome(strategy).qct_by_kind.size());
}

TEST_F(DeterminismTest, EndToEndQctPayloadBitIdentical) {
  const auto cfg = e2e_config();
  const auto runs = results_per_thread_count(
      [&] { return run_workload(cfg, {Strategy::Bohr}); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    expect_payloads_equal(runs[r], runs[0], Strategy::Bohr);
  }
}

TEST_F(DeterminismTest, EndToEndUnderFaultPlanBitIdentical) {
  auto cfg = e2e_config();
  cfg.faults =
      net::parse_fault_plan("outage:site=6,start=0,end=15;probe-loss:p=0.3");
  const auto runs = results_per_thread_count(
      [&] { return run_workload(cfg, {Strategy::Bohr}); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    expect_payloads_equal(runs[r], runs[0], Strategy::Bohr);
  }
}

/// What set-up leaves at one point: every site's rows, and the sorted
/// cells of every site's base cube and dimension cubes, each with the
/// bits of its count, sum, min and max, so they pin how each cube was
/// folded.
struct SetupState {
  std::uint32_t rows_crc = 0;
  std::vector<std::uint32_t> cubes;  // per dataset, site: base, then types
};

SetupState setup_state(const std::vector<DatasetState>& datasets) {
  SetupState out;
  out.rows_crc = rows_crc(datasets);
  for (const DatasetState& d : datasets) {
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      const olap::DatasetCubes& cubes = d.cubes_at(s);
      out.cubes.push_back(olap::cells_crc(cubes.base_cube()));
      for (olap::QueryTypeId t = 0; t < cubes.query_type_count(); ++t) {
        out.cubes.push_back(olap::cells_crc(cubes.dimension_cube(t)));
      }
    }
  }
  return out;
}

void expect_setup_equal(const SetupState& got, const SetupState& want,
                        std::size_t threads, const char* point) {
  SCOPED_TRACE(::testing::Message() << point << " at " << threads
                                    << " threads");
  EXPECT_EQ(got.rows_crc, want.rows_crc);
  ASSERT_EQ(got.cubes.size(), want.cubes.size());
  for (std::size_t c = 0; c < want.cubes.size(); ++c) {
    EXPECT_EQ(got.cubes[c], want.cubes[c]) << "cube " << c;
  }
}

TEST_F(DeterminismTest, SetupStateBitIdentical) {
  // Sites of more than 4,096 rows, so set-up jobs ingest and re-ingest
  // batches of thousands of rows.
  ExperimentConfig cfg = e2e_config();
  cfg.n_datasets = 2;
  cfg.generator.rows_per_site = 4400;
  const auto runs = results_per_thread_count([&] {
    Controller c = make_controller(cfg, Strategy::Bohr);
    std::size_t largest_site = 0;
    for (const DatasetState& d : c.datasets()) {
      for (std::size_t s = 0; s < d.site_count(); ++s) {
        largest_site = std::max(largest_site, d.rows_at(s).size());
      }
    }
    EXPECT_GT(largest_site, 4096u);
    const SetupState ingested = setup_state(c.datasets());
    EXPECT_GT(c.prepare().rows_moved, 0u);
    return std::pair{ingested, setup_state(c.datasets())};
  });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    expect_setup_equal(runs[r].first, runs[0].first, kThreadCounts[r],
                       "after ingest");
    expect_setup_equal(runs[r].second, runs[0].second, kThreadCounts[r],
                       "after prepare()");
  }
}

/// Every JobResult of one batch run, then of one ladder-free churn round
/// over a migrated bucket map, as words. `round_faults` is the round's
/// query-phase plan (null = fault-free).
std::vector<std::vector<std::uint64_t>> batch_words(
    const ExperimentConfig& cfg, Strategy strategy,
    const net::FaultPlan* round_faults) {
  Controller c = make_controller(cfg, strategy);
  std::vector<std::vector<std::uint64_t>> out;
  for (const QueryExecution& exec : c.run_all_queries()) {
    out.push_back(words(exec.result));
  }
  const engine::ReduceBucketMap map = migrated_buckets(c);
  Controller::QueryRound round;
  round.faults = round_faults;
  round.reduce_buckets = &map;
  for (const QueryExecution& exec : c.run_query_round(round)) {
    out.push_back(words(exec.result));
  }
  return out;
}

TEST_F(DeterminismTest, BatchJobResultsBitIdentical) {
  // Bohr takes the job-parallel branch; round-robin assignment
  // (Iridium-C) and stragglers draw from the controller's RNG and take
  // the serial loop. Each runs with and without a query-phase fault plan.
  struct BatchCase {
    const char* name;
    Strategy strategy;
    double straggler_probability;
  };
  const BatchCase cases[] = {{"bohr", Strategy::Bohr, 0.0},
                             {"iridium-c", Strategy::IridiumC, 0.0},
                             {"bohr+stragglers", Strategy::Bohr, 0.3}};
  const net::FaultPlan query_faults = net::parse_fault_plan(
      "outage:site=6,start=0,end=15,phases=query;"
      "slow-site:site=2,start=0,end=60,factor=4,phases=query");
  for (const BatchCase& bc : cases) {
    std::vector<std::vector<std::uint64_t>> clean;
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << bc.name << (faulted ? " faulted" : " fault-free"));
      ExperimentConfig cfg = e2e_config();
      cfg.n_datasets = 2;
      cfg.job.machine.straggler_probability = bc.straggler_probability;
      if (faulted) cfg.faults = query_faults;
      const auto runs = results_per_thread_count([&] {
        return batch_words(cfg, bc.strategy,
                           faulted ? &query_faults : nullptr);
      });
      for (std::size_t r = 1; r < runs.size(); ++r) {
        EXPECT_EQ(runs[r], runs[0]) << kThreadCounts[r] << " threads";
      }
      if (faulted) {
        EXPECT_NE(runs[0], clean);  // the plan reaches the query phase
      } else {
        clean = runs[0];
      }
    }
  }
}

TEST_F(DeterminismTest, CheckSimilarityUnderFaultsBitIdentical) {
  const auto cfg = e2e_config();
  const net::FaultPlan faults =
      net::parse_fault_plan("outage:site=3,start=0,end=20;probe-loss:p=0.4");
  workload::GeneratorConfig gen = cfg.generator;
  auto bundle = workload::generate_dataset(cfg.workload, 0, gen);
  Rng mix_rng(3);
  auto mix = workload::sample_query_mix(bundle, mix_rng);
  const DatasetState state(std::move(bundle), std::move(mix), true);

  const auto runs = results_per_thread_count([&] {
    SimilarityOptions options;
    options.probe_k = 20;
    options.faults = &faults;
    return check_similarity(state, options);
  });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].self, runs[0].self);
    EXPECT_EQ(runs[r].pair, runs[0].pair);
    EXPECT_EQ(runs[r].probe_bytes, runs[0].probe_bytes);
    EXPECT_EQ(runs[r].probe_pairs_lost, runs[0].probe_pairs_lost);
    for (std::size_t i = 0; i < runs[0].matched_keys.size(); ++i) {
      for (std::size_t j = 0; j < runs[0].matched_keys[i].size(); ++j) {
        EXPECT_EQ(runs[r].matched_keys[i][j], runs[0].matched_keys[i][j]);
      }
    }
  }
}

}  // namespace
}  // namespace bohr::core
