#include "core/controller.h"

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/parallel.h"
#include "workload/query_mix.h"

namespace bohr::core {
namespace {

workload::GeneratorConfig gen_config() {
  workload::GeneratorConfig cfg;
  cfg.sites = 10;
  cfg.rows_per_site = 240;
  cfg.gb_per_site = 4.0;
  cfg.seed = 41;
  return cfg;
}

std::vector<DatasetState> make_states(std::size_t n, bool cubes) {
  std::vector<DatasetState> states;
  Rng rng(2);
  for (std::size_t a = 0; a < n; ++a) {
    auto bundle = workload::generate_dataset(workload::WorkloadKind::BigData,
                                             a, gen_config());
    auto mix = workload::sample_query_mix(bundle, rng);
    states.emplace_back(std::move(bundle), std::move(mix), cubes);
  }
  return states;
}

Controller make_controller(Strategy s, std::size_t datasets = 3) {
  ControllerOptions options;
  options.strategy = s;
  options.lag_seconds = 60.0;
  options.seed = 5;
  return Controller(net::make_paper_topology(125e6),
                    make_states(datasets, traits_of(s).cubes), options);
}

TEST(ControllerTest, PrepareIsIdempotent) {
  Controller c = make_controller(Strategy::Bohr);
  const PrepareReport& first = c.prepare();
  const double moved = first.bytes_moved;
  const PrepareReport& second = c.prepare();
  EXPECT_EQ(&first, &second);  // same cached report
  EXPECT_DOUBLE_EQ(second.bytes_moved, moved);
}

TEST(ControllerTest, CubeStrategiesRequireCubes) {
  ControllerOptions options;
  options.strategy = Strategy::Bohr;  // cubes = true
  EXPECT_THROW(Controller(net::make_paper_topology(125e6),
                          make_states(1, /*cubes=*/false), options),
               bohr::ContractViolation);
}

TEST(ControllerTest, RunsOneExecutionPerActiveQueryType) {
  Controller c = make_controller(Strategy::IridiumC);
  const auto executions = c.run_all_queries();
  std::size_t expected = 0;
  for (const auto& d : c.datasets()) {
    for (const auto count : d.mix().counts) {
      if (count > 0) ++expected;
    }
  }
  EXPECT_EQ(executions.size(), expected);
  for (const auto& exec : executions) {
    EXPECT_GT(exec.recurrences, 0u);
    EXPECT_GT(exec.result.qct_seconds, 0.0);
  }
}

/// A controller whose sites hold several partitions each, so round-robin
/// assignment has partitions to shuffle.
Controller partitioned_controller(Strategy s) {
  ControllerOptions options;
  options.strategy = s;
  options.lag_seconds = 60.0;
  options.seed = 5;
  options.job.partition_records = 24;
  return Controller(net::make_paper_topology(125e6),
                    make_states(3, traits_of(s).cubes), options);
}

TEST(ControllerTest, PureBatchLeavesTheRngUntouched) {
  // Bohr draws nothing from the controller's RNG once prepared, so its
  // batch and churn queries run job-parallel on copies of it.
  const std::size_t threads_before = thread_count();
  for (const std::size_t threads : {1UL, 8UL}) {
    set_thread_count(threads);
    Controller c = partitioned_controller(Strategy::Bohr);
    c.prepare();
    const Rng::State before = c.rng_state();
    c.run_all_queries();
    EXPECT_EQ(c.rng_state(), before) << threads << " threads";
    c.run_query_round(Controller::QueryRound{});
    EXPECT_EQ(c.rng_state(), before) << threads << " threads";
  }
  set_thread_count(threads_before);
}

TEST(ControllerTest, ImpureBatchDrawsTheSameAtAnyThreadCount) {
  // Iridium-C's round-robin assignment draws from the controller's RNG,
  // so its batch runs serially and leaves the RNG in one state at any
  // thread count.
  const std::size_t threads_before = thread_count();
  std::vector<Rng::State> after;
  for (const std::size_t threads : {1UL, 8UL}) {
    set_thread_count(threads);
    Controller c = partitioned_controller(Strategy::IridiumC);
    c.prepare();
    const Rng::State before = c.rng_state();
    c.run_all_queries();
    EXPECT_NE(c.rng_state(), before) << threads << " threads";
    after.push_back(c.rng_state());
  }
  set_thread_count(threads_before);
  EXPECT_EQ(after[0], after[1]);
}

TEST(ControllerTest, LpTimeIsAmortizedIntoQct) {
  Controller c = make_controller(Strategy::BohrJoint);
  const PrepareReport& prep = c.prepare();
  EXPECT_GT(prep.decision.lp_seconds, 0.0);
  EXPECT_GT(prep.decision.modeled_lp_seconds(), 0.0);
  std::size_t total_queries = 0;
  for (const auto& d : c.datasets()) total_queries += d.mix().total_queries();
  const double per_query = prep.decision.modeled_lp_seconds() /
                           static_cast<double>(total_queries);
  // Every execution's QCT embeds at least the amortized LP share.
  for (const auto& exec : c.run_all_queries()) {
    EXPECT_GE(exec.result.qct_seconds, per_query);
  }
}

TEST(ControllerTest, ProfiledReductionRatioIsPlausible) {
  Controller c = make_controller(Strategy::Bohr);
  for (const auto& d : c.datasets()) {
    const double r = c.profiled_reduction_ratio(d);
    // Map output bytes per input byte: positive, and far below 1 for
    // aggregation-style queries over 256B records.
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(ControllerTest, PlacementProblemMirrorsState) {
  Controller c = make_controller(Strategy::Bohr, 2);
  const PlacementProblem p = c.build_placement_problem();
  ASSERT_EQ(p.datasets.size(), 2u);
  for (std::size_t a = 0; a < 2; ++a) {
    const auto& d = c.datasets()[a];
    ASSERT_EQ(p.datasets[a].input_bytes.size(), d.site_count());
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      EXPECT_DOUBLE_EQ(p.datasets[a].input_bytes[i], d.input_bytes_at(i));
      EXPECT_GE(p.datasets[a].self_similarity[i], 0.0);
      EXPECT_LE(p.datasets[a].self_similarity[i], 1.0);
    }
  }
}

TEST(ControllerTest, SimilarityOnlyForSimilarityStrategies) {
  Controller iridium_c = make_controller(Strategy::IridiumC);
  iridium_c.prepare();
  EXPECT_TRUE(iridium_c.similarity().empty());

  Controller bohr_sim = make_controller(Strategy::BohrSim);
  bohr_sim.prepare();
  EXPECT_EQ(bohr_sim.similarity().size(), bohr_sim.datasets().size());
  EXPECT_GT(bohr_sim.prepare().probe_bytes, 0.0);
}

TEST(ControllerTest, MovementConservesRows) {
  Controller c = make_controller(Strategy::Bohr);
  std::size_t before = 0;
  for (const auto& d : c.datasets()) before += d.bundle().total_rows();
  c.prepare();
  std::size_t after = 0;
  for (const auto& d : c.datasets()) after += d.bundle().total_rows();
  EXPECT_EQ(after, before);
}

TEST(ControllerTest, IntermediateRecordBytesScaleWithRowSize) {
  Controller c = make_controller(Strategy::Bohr, 1);
  const auto& d = c.datasets().front();
  engine::QuerySpec spec = engine::default_spec_for(engine::QueryKind::Udf);
  const double bytes = c.intermediate_record_bytes(d, spec);
  const double representation = d.bundle().bytes_per_row / 256.0;
  EXPECT_DOUBLE_EQ(bytes,
                   spec.intermediate_bytes_per_record * representation);
}

}  // namespace
}  // namespace bohr::core
