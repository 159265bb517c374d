// Controller::run_single_query's plan cache (DESIGN.md §16): cold and
// warm answers equal the engine run directly on freshly mapped inputs,
// bit for bit; a change to a dataset's rows invalidates its entries, and
// so does a re-plan that leaves them in place; configurations whose
// engine draws from the caller's RNG bypass the cache; concurrent cold
// fills of one key agree; and a churn round runs the same execution path.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/phase_timer.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "job_results.h"

namespace bohr::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 2;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 120;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 13;
  return cfg;
}

Controller prepared(const ExperimentConfig& cfg,
                    Strategy strategy = Strategy::Bohr) {
  Controller controller = make_controller(cfg, strategy);
  controller.prepare();
  return controller;
}

/// What run_single_query must return: engine::run_job on freshly mapped
/// inputs under the controller's per-dataset job config.
engine::JobResult reference(const Controller& c, std::size_t a,
                            std::size_t t,
                            const engine::ReduceBucketMap* buckets,
                            Rng& rng) {
  const DatasetState& d = c.datasets()[a];
  const StrategyTraits traits = traits_of(c.options().strategy);
  engine::QuerySpec spec =
      engine::default_spec_for(d.bundle().query_types[t].kind);
  spec.dataset = d.dataset_id();
  spec.query_type = d.cube_query_type(t);
  spec.intermediate_bytes_per_record = c.intermediate_record_bytes(d, spec);

  engine::JobConfig job = c.options().job;
  job.partition_policy = traits.cubes ? engine::PartitionPolicy::CubeSorted
                                      : engine::PartitionPolicy::ArrivalOrder;
  job.executor_assignment = traits.rdd_similarity
                                ? engine::ExecutorAssignment::SimilarityKMeans
                                : engine::ExecutorAssignment::RoundRobin;
  job.reduce_buckets = buckets;
  job.machine.record_scale = std::max(
      1.0, d.bundle().bytes_per_row / c.options().physical_record_bytes);

  std::vector<engine::RecordStream> inputs(d.site_count());
  for (std::size_t i = 0; i < d.site_count(); ++i) {
    inputs[i] = d.map_rows(i, t, spec.selectivity, d.query_salt(t));
  }
  return engine::run_job(c.topology(), inputs,
                         c.prepare_report().decision.reduce_fractions, spec,
                         job, rng);
}

std::vector<std::uint64_t> rng_words(const Rng& rng) {
  const Rng::State s = rng.state();
  return {s.words[0], s.words[1], s.words[2], s.words[3],
          std::bit_cast<std::uint64_t>(s.spare), s.has_spare};
}

/// DIMSUM signature passes so far: engine runs under Bohr-RDD
/// assignment add some, a cache hit adds none.
std::uint64_t dimsum_runs() {
  for (const PhaseTotal& p : phase_snapshot()) {
    if (p.name == "dimsum.signatures") return p.samples;
  }
  return 0;
}

TEST(PlanCacheTest, ColdAndWarmAnswersMatchTheEngineBitForBit) {
  const Controller c = prepared(small_config());
  const engine::ReduceBucketMap migrated = migrated_buckets(c);
  for (const engine::ReduceBucketMap* buckets :
       {static_cast<const engine::ReduceBucketMap*>(nullptr), &migrated}) {
    for (std::size_t a = 0; a < c.datasets().size(); ++a) {
      const std::size_t types = c.datasets()[a].bundle().query_types.size();
      for (std::size_t t = 0; t < types; ++t) {
        SCOPED_TRACE(::testing::Message()
                     << "dataset " << a << " type " << t
                     << (buckets != nullptr ? " bucketed" : " fractions"));
        Rng ref_rng(7);
        const std::vector<std::uint64_t> want =
            words(reference(c, a, t, buckets, ref_rng));

        const std::uint64_t before_cold = dimsum_runs();
        Rng cold_rng(7);
        EXPECT_EQ(words(c.run_single_query(a, t, buckets, cold_rng)), want);
        EXPECT_GT(dimsum_runs(), before_cold);  // computed

        const std::uint64_t before_warm = dimsum_runs();
        Rng warm_rng(7);
        EXPECT_EQ(words(c.run_single_query(a, t, buckets, warm_rng)), want);
        EXPECT_EQ(dimsum_runs(), before_warm);  // served from the cache
        EXPECT_EQ(rng_words(warm_rng), rng_words(ref_rng));
      }
    }
  }
}

TEST(PlanCacheTest, RowChangesInvalidateTheDatasetsEntries) {
  Controller c = prepared(small_config());
  const std::size_t a = 0;
  const std::size_t t = 0;
  const auto query = [&] {
    Rng rng(3);
    return words(c.run_single_query(a, t, nullptr, rng));
  };
  const auto fresh = [&] {
    Rng rng(3);
    return words(reference(c, a, t, nullptr, rng));
  };
  const std::vector<std::uint64_t> before = query();

  olap::RowTable donated(c.datasets()[a].bundle().cube_spec.schema);
  donated.append_range(c.datasets()[a].rows_at(1), 0, 10);
  c.mutable_dataset(a).append_rows(0, donated);
  const std::vector<std::uint64_t> after_append = query();
  EXPECT_EQ(after_append, fresh());
  EXPECT_NE(after_append, before);

  // Enough rows that some pass the query's selectivity filter.
  std::vector<std::size_t> moved(20);
  std::iota(moved.begin(), moved.end(), 0);
  c.mutable_dataset(a).move_rows_multi(0, {{2, moved}});
  const std::vector<std::uint64_t> after_move = query();
  EXPECT_EQ(after_move, fresh());
  EXPECT_NE(after_move, after_append);
}

TEST(PlanCacheTest, ReplanRetiresEntriesWhoseRowsStayPut) {
  // A re-plan can move the reduce fractions without touching a dataset's
  // rows. With a lag too short to ship one row, growing dataset 1 alone
  // changes the LP's answer while dataset 0 keeps its version, so a
  // cached dataset-0 answer would survive a re-plan that kept the cache.
  ExperimentConfig cfg = small_config();
  cfg.lag_seconds = 0.01;
  // Dataset 1's site 0 gains a copy of every other site's rows.
  const auto grow = [](Controller& c) {
    DatasetState& d = c.mutable_dataset(1);
    for (std::size_t s = 1; s < d.site_count(); ++s) {
      d.append_rows(0, d.rows_at(s));
    }
  };
  Controller cached = make_controller(cfg, Strategy::Bohr);
  Controller twin = make_controller(cfg, Strategy::Bohr);
  ASSERT_EQ(cached.prepare().rows_moved, 0u);
  twin.prepare();
  Rng fill_rng(5);
  cached.run_single_query(0, 0, nullptr, fill_rng);

  const std::uint64_t version = cached.datasets()[0].version();
  const std::vector<double> fractions =
      cached.prepare_report().decision.reduce_fractions;
  grow(cached);
  grow(twin);
  ASSERT_EQ(cached.replan().rows_moved, 0u);
  twin.replan();
  EXPECT_EQ(cached.datasets()[0].version(), version);
  EXPECT_NE(cached.prepare_report().decision.reduce_fractions, fractions);

  // The twin never ran a query, so its answer is computed afresh.
  Rng cached_rng(5);
  Rng twin_rng(5);
  EXPECT_EQ(words(cached.run_single_query(0, 0, nullptr, cached_rng)),
            words(twin.run_single_query(0, 0, nullptr, twin_rng)));
}

TEST(PlanCacheTest, RngDrawingConfigurationsBypassTheCache) {
  // Stragglers draw per executor, and Iridium-C's round-robin assignment
  // shuffles partitions: both runs consume the caller's RNG, so every
  // call must run the engine and leave the RNG where the engine did.
  ExperimentConfig straggling = small_config();
  straggling.job.machine.straggler_probability = 0.3;
  const Controller with_stragglers = prepared(straggling);
  const Controller round_robin = prepared(small_config(), Strategy::IridiumC);
  for (const Controller* c : {&with_stragglers, &round_robin}) {
    SCOPED_TRACE(to_string(c->options().strategy));
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
      Rng rng(seed);
      Rng ref_rng(seed);
      EXPECT_EQ(words(c->run_single_query(0, 0, nullptr, rng)),
                words(reference(*c, 0, 0, nullptr, ref_rng)));
      EXPECT_EQ(rng_words(rng), rng_words(ref_rng));
      EXPECT_NE(rng_words(rng), rng_words(Rng(seed)));
    }
  }
}

TEST(PlanCacheTest, ChurnRoundRunsTheServingQueryInBatchOrder) {
  // run_query_round, run_single_query and run_all_queries share one
  // execution path: a fault-free, ladder-free churn round over a bucket
  // map answers each (dataset, type) exactly as serving does, and lists
  // its executions the way the batch run does.
  Controller c = prepared(small_config());
  const engine::ReduceBucketMap map = migrated_buckets(c);
  Controller::QueryRound round;
  round.reduce_buckets = &map;
  const std::vector<QueryExecution> churn = c.run_query_round(round);
  ASSERT_FALSE(churn.empty());
  for (const QueryExecution& exec : churn) {
    SCOPED_TRACE(::testing::Message() << "dataset " << exec.dataset_id
                                      << " type " << exec.query_type_spec);
    const auto it = std::find_if(
        c.datasets().begin(), c.datasets().end(), [&](const DatasetState& d) {
          return d.dataset_id() == exec.dataset_id;
        });
    ASSERT_NE(it, c.datasets().end());
    const auto a = static_cast<std::size_t>(it - c.datasets().begin());
    Rng rng(7);
    EXPECT_EQ(words(exec.result),
              words(c.run_single_query(a, exec.query_type_spec, &map, rng)));
  }

  const std::vector<QueryExecution> batch = c.run_all_queries();
  ASSERT_EQ(churn.size(), batch.size());
  for (std::size_t i = 0; i < churn.size(); ++i) {
    EXPECT_EQ(churn[i].dataset_id, batch[i].dataset_id) << i;
    EXPECT_EQ(churn[i].query_type_spec, batch[i].query_type_spec) << i;
    EXPECT_EQ(churn[i].kind, batch[i].kind) << i;
    EXPECT_EQ(churn[i].recurrences, batch[i].recurrences) << i;
  }
}

TEST(PlanCacheTest, ConcurrentColdFillsAgree) {
  // Raw threads race the first fill of two keys (one per placement) on a
  // fresh controller; every racer must return the engine's answer.
  const Controller c = prepared(small_config());
  const engine::ReduceBucketMap migrated = migrated_buckets(c);
  const auto buckets_of = [&](int i) {
    return i % 2 == 0 ? nullptr : &migrated;
  };
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      Rng rng(hash_combine(0xC01D, i));
      got[i] = words(c.run_single_query(1, 0, buckets_of(i), rng));
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    Rng ref_rng(0);
    EXPECT_EQ(got[i], words(reference(c, 1, 0, buckets_of(i), ref_rng)))
        << "thread " << i;
  }
}

}  // namespace
}  // namespace bohr::core
