// Elastic load-migration controller (robustness): bucket relocation off
// sick sites must be deterministic, incremental (no joint-LP re-run),
// and an actual win — churn QCT with migration on must not be worse
// than with it off on the same seed and fault plan. Byte-identity of
// the migration log is the contract the checkpoint/recovery path and
// the CI churn smoke both lean on.
#include "core/migration.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/experiment.h"
#include "engine/partitioner.h"
#include "net/faults.h"
#include "snapshot_files.h"
#include "../temp_dir.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;
using temp_dir::fresh_dir;

net::WanTopology uniform_topo(std::size_t sites, double cap = 100.0) {
  std::vector<net::Site> specs;
  for (std::size_t i = 0; i < sites; ++i) {
    specs.push_back(net::Site{"S" + std::to_string(i), cap, cap});
  }
  return net::WanTopology(specs);
}

std::vector<double> uniform_fractions(std::size_t sites) {
  return std::vector<double>(sites, 1.0 / static_cast<double>(sites));
}

/// Per-site bucket counts implied by the controller's current map.
std::vector<std::size_t> owned_counts(const MigrationController& ctl) {
  std::vector<std::size_t> counts(ctl.buckets().site_count, 0);
  for (const std::uint32_t site : ctl.buckets().owner) ++counts[site];
  return counts;
}

// ---------------------------------------------------------------------------
// Bucket quantization.

TEST(ReduceBucketMapTest, LargestRemainderApportionment) {
  const auto map =
      engine::ReduceBucketMap::from_fractions({0.5, 0.25, 0.25}, 8);
  EXPECT_EQ(map.bucket_count(), 8u);
  std::vector<std::size_t> counts(3, 0);
  for (const auto site : map.owner) ++counts[site];
  EXPECT_EQ(counts, (std::vector<std::size_t>{4, 2, 2}));
  const auto fractions = map.to_fractions();
  EXPECT_DOUBLE_EQ(fractions[0], 0.5);
  EXPECT_DOUBLE_EQ(fractions[1], 0.25);
  EXPECT_DOUBLE_EQ(fractions[2], 0.25);
}

TEST(ReduceBucketMapTest, RelocateMovesOneBucket) {
  auto map = engine::ReduceBucketMap::from_fractions({0.5, 0.5}, 4);
  map.relocate(0, 1);
  EXPECT_EQ(map.owner[0], 1u);
  EXPECT_EQ(map.buckets_at(0).size(), 1u);
  EXPECT_EQ(map.buckets_at(1).size(), 3u);
  EXPECT_THROW(map.relocate(0, 7), ContractViolation);
}

// ---------------------------------------------------------------------------
// Acceptance (a): a hot/degraded site sheds buckets under headroom.

TEST(MigrationControllerTest, DegradedSiteShedsBucketsUntilStable) {
  const auto topo = uniform_topo(4);
  MigrationOptions opts;
  opts.buckets = 8;  // 2 buckets per site initially
  MigrationController ctl(topo, uniform_fractions(4), opts);
  net::FaultPlan plan;
  plan.slowdowns.push_back(net::SiteSlowdown{0, 0.0, 1000.0, 4.0});

  const MigrationRound& round = ctl.step(plan, 10.0);
  // Site 0 runs 4x slow (effective load 8 vs mean 3.5): it sheds both
  // buckets — deterministically to sites 1 then 2 — and the anti-thrash
  // guard then refuses to hand them back to the drained slow site.
  EXPECT_EQ(round.moves, 2u);
  EXPECT_EQ(round.evacuations, 0u);
  EXPECT_EQ(owned_counts(ctl), (std::vector<std::size_t>{0, 3, 3, 2}));
  EXPECT_GT(round.delta_bytes, 0.0);
  EXPECT_GT(round.delta_seconds, 0.0);
  // A second round at the same health is stable: nothing left to move.
  const MigrationRound& again = ctl.step(plan, 20.0);
  EXPECT_EQ(again.moves, 0u);
  EXPECT_EQ(owned_counts(ctl), (std::vector<std::size_t>{0, 3, 3, 2}));
}

// ---------------------------------------------------------------------------
// Acceptance (b): a killed site's buckets land on healthy sites without
// any prepare()/LP re-run — the controller only ever relocates buckets.

TEST(MigrationControllerTest, DeadSiteIsFullyEvacuated) {
  const auto topo = uniform_topo(3);
  MigrationOptions opts;
  opts.buckets = 6;
  MigrationController ctl(topo, uniform_fractions(3), opts);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{1, 0.0, 1000.0});

  ctl.step(plan, 0.0);  // probe miss 1: site 1 not yet declared dead
  EXPECT_EQ(ctl.total_evacuations(), 0u);
  const MigrationRound& round = ctl.step(plan, 1.0);  // miss 2: dead
  EXPECT_EQ(ctl.health().health(1), net::SiteHealth::kDead);
  EXPECT_EQ(round.evacuations, 2u);
  // Ties break to the lower site id: one bucket each to sites 0 and 2.
  EXPECT_EQ(owned_counts(ctl), (std::vector<std::size_t>{3, 0, 3}));
  for (const std::uint32_t site : ctl.buckets().owner) {
    EXPECT_TRUE(ctl.health().usable(site));
  }
}

TEST(MigrationControllerTest, NoUsableSiteLeavesPlacementStanding) {
  const auto topo = uniform_topo(2);
  MigrationOptions opts;
  opts.buckets = 4;
  MigrationController ctl(topo, uniform_fractions(2), opts);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{0, 0.0, 1000.0});
  plan.outages.push_back(net::OutageWindow{1, 0.0, 1000.0});
  ctl.step(plan, 0.0);
  ctl.step(plan, 1.0);
  EXPECT_EQ(ctl.health().usable_count(), 0u);
  // Nowhere to go: no moves, the map is unchanged rather than corrupted.
  EXPECT_EQ(ctl.total_evacuations(), 0u);
  EXPECT_EQ(owned_counts(ctl), (std::vector<std::size_t>{2, 2}));
}

// ---------------------------------------------------------------------------
// Acceptance (c): byte-identical decisions on identical inputs.

TEST(MigrationControllerTest, SameInputsProduceByteIdenticalLogs) {
  const auto topo = uniform_topo(4);
  const auto drive = [&](MigrationController& ctl) {
    net::FaultPlan plan;
    plan.outages.push_back(net::OutageWindow{3, 0.0, 50.0});
    plan.slowdowns.push_back(net::SiteSlowdown{0, 0.0, 1000.0, 4.0});
    for (std::size_t r = 0; r < 5; ++r) {
      ctl.step(plan, static_cast<double>(r) * 10.0);
    }
  };
  MigrationController a(topo, uniform_fractions(4));
  MigrationController b(topo, uniform_fractions(4));
  drive(a);
  drive(b);
  EXPECT_FALSE(a.log().empty());
  EXPECT_EQ(a.log(), b.log());
  EXPECT_EQ(a.log_digest(), b.log_digest());
  EXPECT_EQ(a.buckets().owner, b.buckets().owner);
}

// ---------------------------------------------------------------------------
// Acceptance (d): serialize/restore resumes to the same final placement.

TEST(MigrationControllerTest, RestoredControllerResumesIdentically) {
  const auto topo = uniform_topo(4);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{2, 0.0, 25.0});
  plan.slowdowns.push_back(net::SiteSlowdown{1, 15.0, 1000.0, 5.0});

  MigrationController full(topo, uniform_fractions(4));
  MigrationController crashed(topo, uniform_fractions(4));
  for (std::size_t r = 0; r < 2; ++r) {
    full.step(plan, static_cast<double>(r) * 10.0);
    crashed.step(plan, static_cast<double>(r) * 10.0);
  }
  const std::string image = crashed.serialize();

  MigrationController resumed(topo, uniform_fractions(4));
  resumed.restore(image);
  for (std::size_t r = 2; r < 5; ++r) {
    full.step(plan, static_cast<double>(r) * 10.0);
    resumed.step(plan, static_cast<double>(r) * 10.0);
  }
  EXPECT_EQ(resumed.log(), full.log());
  EXPECT_EQ(resumed.buckets().owner, full.buckets().owner);
  EXPECT_EQ(resumed.rounds(), full.rounds());
  EXPECT_EQ(resumed.total_moves(), full.total_moves());
  EXPECT_EQ(resumed.serialize(), full.serialize());
}

TEST(MigrationControllerTest, RestoreRejectsCorruptImages) {
  const auto topo = uniform_topo(3);
  MigrationController ctl(topo, uniform_fractions(3));
  std::string image = ctl.serialize();
  MigrationController other(topo, uniform_fractions(3));
  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_THROW(other.restore(bad_magic), ContractViolation);
  EXPECT_THROW(other.restore(image.substr(0, image.size() - 3)),
               ContractViolation);
  // Wrong shape: a 4-site image cannot land on a 3-site controller.
  const auto topo4 = uniform_topo(4);
  MigrationController wide(topo4, uniform_fractions(4));
  EXPECT_THROW(other.restore(wide.serialize()), ContractViolation);
}

TEST(MigrationControllerTest, RejectsNonsenseHeadroom) {
  const auto topo = uniform_topo(2);
  MigrationOptions bad;
  bad.migrate_headroom = 1.0;  // must be > 1
  EXPECT_THROW(MigrationController(topo, uniform_fractions(2), bad),
               ContractViolation);
  bad.migrate_headroom = 1.25;
  bad.assign_headroom = 1.3;  // receive threshold above shed threshold
  EXPECT_THROW(MigrationController(topo, uniform_fractions(2), bad),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Churn integration: the full loop through run_churn_experiment.

ExperimentConfig churn_config() {
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
  cfg.seed = 7;
  // Run-clock churn: site 6 dies for the middle rounds, site 2 crawls
  // at 6x for the back half (rounds execute at 60, 120, 180, 240).
  cfg.faults = net::parse_fault_plan(
      "outage:site=6,start=100,end=400;"
      "slow-site:site=2,start=150,end=520,factor=6");
  return cfg;
}

ChurnOptions fast_churn() {
  ChurnOptions churn;
  churn.rounds = 4;
  return churn;
}

TEST(ChurnExperimentTest, MigrationOnIsNoWorseThanOff) {
  const ExperimentConfig cfg = churn_config();
  ChurnOptions churn = fast_churn();
  churn.migration = true;
  const ChurnRunResult on = run_churn_experiment(cfg, churn);
  churn.migration = false;
  const ChurnRunResult off = run_churn_experiment(cfg, churn);

  ASSERT_EQ(on.rounds_run, 4u);
  ASSERT_EQ(off.rounds_run, 4u);
  ASSERT_EQ(on.queries_run, off.queries_run);
  // The whole point: relocating buckets off sick sites must not lose to
  // leaving them stranded, on the exact same seed and fault plan.
  EXPECT_LE(on.avg_qct_seconds, off.avg_qct_seconds * (1.0 + 1e-9));
  EXPECT_GT(on.migrations + on.evacuations, 0u);
  EXPECT_EQ(off.migrations, 0u);
  EXPECT_EQ(off.evacuations, 0u);
  EXPECT_TRUE(off.migration_log.empty());
  EXPECT_EQ(off.migration_log_crc32, 0u);
  EXPECT_GE(on.max_reduce_slowdown, 6.0 - 1e-9);  // the slow site was seen
}

TEST(ChurnExperimentTest, SameSeedProducesByteIdenticalMigrationLogs) {
  const ExperimentConfig cfg = churn_config();
  const ChurnOptions churn = fast_churn();
  const ChurnRunResult a = run_churn_experiment(cfg, churn);
  const ChurnRunResult b = run_churn_experiment(cfg, churn);
  EXPECT_FALSE(a.migration_log.empty());
  EXPECT_EQ(a.migration_log, b.migration_log);
  EXPECT_EQ(a.migration_log_crc32, b.migration_log_crc32);
  EXPECT_EQ(a.avg_qct_seconds, b.avg_qct_seconds);
  EXPECT_EQ(a.round_qct_seconds, b.round_qct_seconds);
}

TEST(ChurnExperimentTest, CrashMidMigrationRecoversToSameFinalState) {
  const ExperimentConfig cfg = churn_config();
  const ChurnRunResult clean = run_churn_experiment(cfg, fast_churn());

  const std::string dir = fresh_dir("churn_crash");
  ChurnOptions crash = fast_churn();
  crash.checkpoint_dir = dir;
  crash.crash_after_round = 2;
  const ChurnRunResult crashed = run_churn_experiment(cfg, crash);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_EQ(crashed.rounds_run, 2u);
  EXPECT_EQ(crashed.snapshots_written, 2u);
  // A churn snapshot adds only the migration image to a prepare's.
  EXPECT_EQ(snapshot_files::file_names(fs::path(dir) / "snapshot-2"),
            (std::vector<std::string>{"MANIFEST", "migration.bin",
                                      "state.bin"}));

  ChurnOptions resume = fast_churn();
  resume.checkpoint_dir = dir;
  resume.recover = true;
  const ChurnRunResult recovered = run_churn_experiment(cfg, resume);
  EXPECT_TRUE(recovered.recovered);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.rounds_run, clean.rounds_run);
  EXPECT_EQ(recovered.queries_run, clean.queries_run);
  // Byte-identical resume: same per-round QCTs, same decision log, so
  // the final bucket placement is the same placement.
  EXPECT_EQ(recovered.round_qct_seconds, clean.round_qct_seconds);
  EXPECT_EQ(recovered.avg_qct_seconds, clean.avg_qct_seconds);
  EXPECT_EQ(recovered.migration_log, clean.migration_log);
  EXPECT_EQ(recovered.migration_log_crc32, clean.migration_log_crc32);
}

TEST(MigrationControllerTest, DeadAliveDeadCycleEvacuatesBothTimes) {
  // A site dies, is evacuated, recovers (buckets rebalance back over
  // time), then dies again: the controller must evacuate again on the
  // relapse — a site's earlier recovery must not leave it trusted while
  // dark. Stretches are longer than the flap window so quarantine never
  // masks the cycle.
  const auto topo = uniform_topo(3);
  MigrationOptions opts;
  opts.buckets = 6;
  opts.health.flap_window_seconds = 50.0;
  MigrationController ctl(topo, uniform_fractions(3), opts);

  net::FaultPlan first_death;
  first_death.outages.push_back(net::OutageWindow{1, 0.0, 200.0});
  ctl.step(first_death, 0.0);
  ctl.step(first_death, 1.0);
  EXPECT_EQ(ctl.health().health(1), net::SiteHealth::kDead);
  const std::size_t after_first = ctl.total_evacuations();
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(owned_counts(ctl)[1], 0u);

  // Alive stretch, past the flap window: the monitor re-trusts site 1.
  for (double t = 210.0; t < 400.0; t += 10.0) ctl.step(net::FaultPlan{}, t);
  EXPECT_EQ(ctl.health().health(1), net::SiteHealth::kHealthy);
  EXPECT_TRUE(ctl.health().usable(1));

  // Second death, again longer than the flap window.
  const std::size_t repatriated = owned_counts(ctl)[1];
  net::FaultPlan second_death;
  second_death.outages.push_back(net::OutageWindow{1, 400.0, 800.0});
  ctl.step(second_death, 400.0);
  const MigrationRound& relapse = ctl.step(second_death, 401.0);
  EXPECT_EQ(ctl.health().health(1), net::SiteHealth::kDead);
  // Whatever drifted back onto site 1 while it was trusted is evacuated
  // again; the site must end the round owning no buckets either way.
  EXPECT_EQ(relapse.evacuations, repatriated);
  EXPECT_EQ(owned_counts(ctl)[1], 0u);
}

TEST(ChurnExperimentTest, RecoverWithEmptyDirFallsBackToFreshRun) {
  const ExperimentConfig cfg = churn_config();
  const std::string dir = fresh_dir("churn_no_snapshots");
  ChurnOptions churn = fast_churn();
  churn.checkpoint_dir = dir;
  churn.recover = true;  // nothing there yet: degrade, don't fail
  const ChurnRunResult result = run_churn_experiment(cfg, churn);
  EXPECT_FALSE(result.recovered);
  EXPECT_EQ(result.rounds_run, 4u);
  EXPECT_EQ(result.snapshots_written, 4u);
}

}  // namespace
}  // namespace bohr::core
