// Pins the exact bytes of every binary image format: one small, fixed
// object per format goes through its encoder, and the image's size and
// CRC-32 must equal constants recorded from the per-format encoders that
// common/bytes.h replaced. The state image's row section is pinned
// after a checkpointed prepare, against a test-side encoding of the
// controller's rows. A codec change that moves a single byte of any
// on-disk or checkpoint format fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/latency.h"
#include "core/checkpoint.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "net/faults.h"
#include "net/site_health.h"
#include "../temp_dir.h"
#include "rows_crc.h"
#include "snapshot_files.h"

namespace bohr {
namespace {

void expect_pinned(const std::string& image, std::size_t size,
                   std::uint32_t crc) {
  EXPECT_EQ(image.size(), size);
  EXPECT_EQ(crc32(image), crc) << std::hex << "actual crc32 0x"
                               << crc32(image);
}

TEST(CodecGoldenTest, PrepareReportImage) {
  core::PrepareReport report;
  report.similarity_seconds = 1.25;  // wall clock: canonicalized to 0
  report.probe_bytes = 4096.0;
  report.decision.move_bytes = {{{0.0, 1.5e6}, {2.5e5, 0.0}},
                                {{0.0, 0.0}, {3.0e6, 0.0}}};
  report.decision.reduce_fractions = {0.25, 0.75};
  report.decision.predicted_shuffle_seconds = 12.5;
  report.decision.lp_seconds = 0.5;  // wall clock: canonicalized to 0
  report.decision.lp_iterations = 17;
  report.decision.lp_converged = true;
  report.movement_seconds = 30.0;
  report.bytes_moved = 4.75e6;
  report.rows_moved = 420;
  report.movement_within_lag = false;
  report.faults.outages_injected = 1;
  report.faults.degradations_injected = 2;
  report.faults.kills_injected = 3;
  report.faults.probe_pairs_lost = 4;
  report.faults.lp_fallbacks = 5;
  report.faults.movement_interruptions = 6;
  report.faults.movement_retries = 7;
  report.faults.movement_flows_failed = 8;
  report.faults.movement_replans = 9;
  report.faults.rows_truncated = 10;
  report.faults.deadline_shortfall_bytes = 1.0e3;
  expect_pinned(core::serialize_prepare_report(report), 266, 0x4257a3fau);
}

TEST(CodecGoldenTest, MigrationImage) {
  std::vector<net::Site> sites;
  for (int i = 0; i < 4; ++i) {
    sites.push_back(net::Site{"S" + std::to_string(i), 100.0, 100.0});
  }
  const net::WanTopology topology(sites);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{2, 0.0, 25.0});
  plan.slowdowns.push_back(net::SiteSlowdown{1, 5.0, 1000.0, 5.0});
  core::MigrationOptions options;
  options.buckets = 16;
  core::MigrationController controller(topology, {0.4, 0.3, 0.2, 0.1},
                                       options);
  controller.step(plan, 0.0);
  controller.step(plan, 10.0);
  expect_pinned(controller.serialize(), 578, 0xac29f59du);
}

TEST(CodecGoldenTest, HealthImage) {
  net::HealthOptions options;
  options.dead_after_misses = 2;
  options.flap_limit = 3;
  options.flap_window_seconds = 100.0;
  net::SiteHealthMonitor monitor(2, options);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{0, 0.0, 5.0});
  plan.outages.push_back(net::OutageWindow{0, 10.0, 15.0});
  for (const double now : {0.0, 1.0, 6.0, 10.0, 11.0, 16.0}) {
    monitor.observe(plan, now);  // two dead->alive flaps on site 0
  }
  expect_pinned(monitor.serialize(), 128, 0x518dfd29u);
}

TEST(CodecGoldenTest, DegradedReportImage) {
  core::DegradedReport report;
  const core::AnswerMode modes[] = {
      core::AnswerMode::kExact, core::AnswerMode::kPartial,
      core::AnswerMode::kSubstituted, core::AnswerMode::kPrior};
  for (std::uint32_t i = 0; i < 4; ++i) {
    core::DegradedAnswer a;
    a.round = 10 + i;
    a.dataset = i;
    a.spec = 2 * i;
    a.mode = modes[i];
    a.value = 100.5 * (i + 1);
    a.exact_value = 100.0 * (i + 1);
    a.error_estimate = 0.125 * i;
    a.coverage = 1.0 - 0.25 * i;
    a.similarity = 0.5;
    a.substitute_dataset = i == 2 ? 3 : core::DegradedAnswer::kNoSubstitute;
    a.sites_usable = 8 - i;
    a.sites_lost = i;
    a.partitions_exact = 12;
    a.partitions_substituted = i;
    a.partitions_dropped = 0;
    a.escalated_phase = i == 1 ? 2 : core::DegradedAnswer::kNoEscalation;
    a.retries = i;
    a.qct_seconds = 59.5 + i;
    report.add(a);
  }
  expect_pinned(report.serialize(), 448, 0xa56ec55du);
}

TEST(CodecGoldenTest, LatencyImage) {
  LatencyRecorder recorder;
  for (const double q : {0.125, 3.5, 1e-9, 42.0, 7.25}) recorder.add(q);
  expect_pinned(recorder.serialize(), 48, 0x606f2a6bu);
}

/// The state image a checkpointed Bohr prepare leaves in its last
/// snapshot must end with the test-side encoding of every dataset's
/// rows after movement; that section's size and crc32 are pinned.
void expect_rows_section_pinned(workload::WorkloadKind kind, std::size_t size,
                                std::uint32_t crc) {
  core::ExperimentConfig cfg;
  cfg.workload = kind;
  cfg.n_datasets = 2;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 60;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.seed = 11;
  core::Controller controller =
      core::make_controller(cfg, core::Strategy::Bohr);
  const std::string dir = temp_dir::fresh_dir(
      "golden-rows-" + workload::to_string(kind));
  core::CheckpointManager checkpoints(dir, 1);
  EXPECT_GT(core::checkpointed_prepare(controller, checkpoints).rows_moved,
            0u);
  const std::string image = core::snapshot_files::read_bytes(
      std::filesystem::path(dir) / "snapshot-4" / "state.bin");
  const std::string section = core::rows_section(controller.datasets());
  ASSERT_GE(image.size(), section.size());
  EXPECT_TRUE(image.compare(image.size() - section.size(), section.size(),
                            section) == 0);
  expect_pinned(section, size, crc);
}

TEST(CodecGoldenTest, StateImageRowSection) {
  {
    SCOPED_TRACE("tpc-ds");
    expect_rows_section_pinned(workload::WorkloadKind::TpcDs, 58974,
                               0x68391413u);
  }
  {
    SCOPED_TRACE("big-data");
    expect_rows_section_pinned(workload::WorkloadKind::BigData, 48174,
                               0x2213293eu);
  }
}

}  // namespace
}  // namespace bohr
