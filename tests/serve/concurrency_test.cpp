// Shared-state concurrency of the serving loop, written to run under
// ThreadSanitizer: concurrent batches executing over one controller's
// cube and similarity state. These spawn raw std::threads (not the
// pooled runtime) so the races exist at every BOHR_THREADS setting.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "serve/server.h"

namespace bohr::serve {
namespace {

core::Controller prepared_controller() {
  core::ExperimentConfig cfg;
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
  core::Controller controller =
      core::make_controller(cfg, core::Strategy::Bohr);
  controller.prepare();
  return controller;
}

TEST(ServeConcurrencyTest, ConcurrentSingleQueriesMatchSerialBaseline) {
  const core::Controller controller = prepared_controller();

  // Serial baseline: each query under its own (seed, seq) RNG stream.
  constexpr std::size_t kQueries = 12;
  std::vector<double> expected(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    Rng rng(hash_combine(0xBEEF, q));
    expected[q] = controller
                      .run_single_query(q % 2, 0, /*reduce_buckets=*/nullptr,
                                        rng)
                      .qct_seconds;
  }

  // The same queries raced across raw threads over the shared
  // controller (cube state, similarity metadata, topology) must be
  // bit-identical — run_single_query is const and re-entrant.
  std::vector<double> got(kQueries);
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    threads.emplace_back([&, q] {
      Rng rng(hash_combine(0xBEEF, q));
      got[q] = controller
                   .run_single_query(q % 2, 0, /*reduce_buckets=*/nullptr, rng)
                   .qct_seconds;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(got, expected);
}

TEST(ServeConcurrencyTest, ConcurrentServingRunsShareOneController) {
  // Two whole serving loops over the same prepared controller at once:
  // the end-to-end shared-state race, each run still reproducing its
  // canonical digest.
  const core::Controller controller = prepared_controller();
  ServeOptions opts;
  opts.arrivals.tenants = 2;
  opts.arrivals.arrival_rate_qps = 1.0;
  opts.arrivals.duration_seconds = 8.0;
  opts.arrivals.seed = 13;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_seconds = 0.3;
  opts.slots = 2;
  opts.migration_period_seconds = 0.0;
  const ServeReport baseline = run_serving(controller, opts);

  ServeReport a, b;
  std::thread ta([&] { a = run_serving(controller, opts); });
  std::thread tb([&] { b = run_serving(controller, opts); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.qct.digest(), baseline.qct.digest());
  EXPECT_EQ(b.qct.digest(), baseline.qct.digest());
}

}  // namespace
}  // namespace bohr::serve
