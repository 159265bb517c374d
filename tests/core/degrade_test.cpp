// Similarity-backed graceful degradation (ISSUE 9): every query is
// answered even when its home sites are lost, each answer carries an
// explicit error estimate, the DegradedReport serializes byte-exactly,
// and with an empty fault plan the degrade machinery is provably inert.
#include "core/degrade.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/experiment.h"
#include "net/faults.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 3;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 120;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 11;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Prepared controller + the degradation service over its state.
struct Fixture {
  Controller controller;
  DegradationService service;

  explicit Fixture(const ExperimentConfig& cfg, DegradeOptions opts = {})
      : controller(make_controller(cfg, Strategy::Bohr)),
        service((controller.prepare(), controller.datasets()),
                controller.similarity(), opts) {}
};

TEST(DegradeOptionsTest, ValidateRejectsBadFields) {
  DegradeOptions opts;
  opts.min_similarity = -0.1;
  EXPECT_THROW(opts.validate(), bohr::ContractViolation);
  opts = DegradeOptions{};
  opts.error_floor = 1.5;
  EXPECT_THROW(opts.validate(), bohr::ContractViolation);
  opts = DegradeOptions{};
  opts.partial_skew_weight = 2.0;
  EXPECT_THROW(opts.validate(), bohr::ContractViolation);
  opts = DegradeOptions{};
  opts.sub_overlap_coeff = -1.0;
  EXPECT_THROW(opts.validate(), bohr::ContractViolation);
  EXPECT_NO_THROW(DegradeOptions{}.validate());
}

TEST(DegradationServiceTest, AllSitesUsableIsExact) {
  const Fixture fx(small_config());
  const std::vector<bool> all_ok(fx.service.site_count(), true);
  for (std::size_t a = 0; a < fx.controller.datasets().size(); ++a) {
    const DegradedAnswer ans = fx.service.answer(a, 0, all_ok);
    EXPECT_EQ(ans.mode, AnswerMode::kExact);
    EXPECT_DOUBLE_EQ(ans.error_estimate, 0.0);
    EXPECT_DOUBLE_EQ(ans.coverage, 1.0);
    EXPECT_DOUBLE_EQ(ans.value, ans.exact_value);
    EXPECT_EQ(ans.sites_lost, 0u);
  }
}

TEST(DegradationServiceTest, PartialLossRescalesAndWidensError) {
  const Fixture fx(small_config());
  const std::vector<DatasetState>& datasets = fx.controller.datasets();
  // Kill one site that holds rows of dataset 0 but not all of them.
  std::size_t victim = fx.service.site_count();
  std::size_t holders = 0;
  for (std::size_t s = 0; s < fx.service.site_count(); ++s) {
    if (!datasets[0].rows_at(s).empty()) {
      ++holders;
      if (victim == fx.service.site_count()) victim = s;
    }
  }
  ASSERT_GE(holders, 2u) << "fixture needs a dataset spread over 2+ sites";
  std::vector<bool> ok(fx.service.site_count(), true);
  ok[victim] = false;
  const DegradedAnswer ans = fx.service.answer(0, 0, ok);
  EXPECT_EQ(ans.mode, AnswerMode::kPartial);
  EXPECT_GT(ans.coverage, 0.0);
  EXPECT_LT(ans.coverage, 1.0);
  EXPECT_GT(ans.error_estimate, 0.0);
  EXPECT_LE(ans.error_estimate, 1.0);
  EXPECT_EQ(ans.sites_lost, 1u);
  // The rescaled estimate must be the surviving mass divided by coverage.
  EXPECT_GT(ans.value, 0.0);
}

TEST(DegradationServiceTest, AllHomeSitesLostSubstitutesOrFallsToPrior) {
  const Fixture fx(small_config());
  const std::vector<DatasetState>& datasets = fx.controller.datasets();
  std::vector<bool> ok(fx.service.site_count(), true);
  for (std::size_t s = 0; s < fx.service.site_count(); ++s) {
    if (!datasets[0].rows_at(s).empty()) ok[s] = false;
  }
  const DegradedAnswer ans = fx.service.answer(0, 0, ok);
  ASSERT_TRUE(ans.mode == AnswerMode::kSubstituted ||
              ans.mode == AnswerMode::kPrior);
  EXPECT_GT(ans.error_estimate, 0.0);
  EXPECT_LE(ans.error_estimate, 1.0);
  EXPECT_DOUBLE_EQ(ans.coverage, 0.0);
  if (ans.mode == AnswerMode::kSubstituted) {
    EXPECT_NE(ans.substitute_dataset, DegradedAnswer::kNoSubstitute);
    EXPECT_GT(ans.similarity, 0.0);
  } else {
    EXPECT_EQ(ans.substitute_dataset, DegradedAnswer::kNoSubstitute);
    EXPECT_DOUBLE_EQ(ans.error_estimate, 1.0);
  }
}

TEST(DegradationServiceTest, EverythingLostIsPriorWithFullError) {
  const Fixture fx(small_config());
  const std::vector<bool> none_ok(fx.service.site_count(), false);
  for (std::size_t a = 0; a < fx.controller.datasets().size(); ++a) {
    const DegradedAnswer ans = fx.service.answer(a, 0, none_ok);
    EXPECT_EQ(ans.mode, AnswerMode::kPrior);
    EXPECT_DOUBLE_EQ(ans.error_estimate, 1.0);
  }
}

TEST(DegradationServiceTest, AnswerIsDeterministic) {
  const ExperimentConfig cfg = small_config();
  const Fixture fx1(cfg);
  const Fixture fx2(cfg);
  std::vector<bool> ok(fx1.service.site_count(), true);
  ok[0] = ok[1] = false;
  for (std::size_t a = 0; a < fx1.controller.datasets().size(); ++a) {
    const DegradedAnswer x = fx1.service.answer(a, 0, ok);
    const DegradedAnswer y = fx2.service.answer(a, 0, ok);
    EXPECT_EQ(x.mode, y.mode);
    EXPECT_DOUBLE_EQ(x.value, y.value);
    EXPECT_DOUBLE_EQ(x.error_estimate, y.error_estimate);
    EXPECT_EQ(x.substitute_dataset, y.substitute_dataset);
  }
}

DegradedAnswer sample_answer(std::uint64_t round, AnswerMode mode) {
  DegradedAnswer a;
  a.round = round;
  a.dataset = 3;
  a.spec = 1;
  a.mode = mode;
  a.value = 123.5;
  a.exact_value = 130.0;
  a.error_estimate = 0.25;
  a.coverage = 0.75;
  a.similarity = 0.5;
  a.substitute_dataset = mode == AnswerMode::kSubstituted ? 7u
                             : DegradedAnswer::kNoSubstitute;
  a.sites_usable = 5;
  a.sites_lost = 3;
  a.partitions_exact = 60;
  a.partitions_dropped = 4;
  a.escalated_phase = 1;
  a.retries = 2;
  a.qct_seconds = 59.5;
  return a;
}

TEST(DegradedReportTest, SerializeRoundTripsByteExactly) {
  DegradedReport report;
  report.add(sample_answer(0, AnswerMode::kExact));
  report.add(sample_answer(1, AnswerMode::kPartial));
  report.add(sample_answer(1, AnswerMode::kSubstituted));
  report.add(sample_answer(2, AnswerMode::kPrior));
  const std::string bytes = report.serialize();
  const DegradedReport back = DegradedReport::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.digest(), report.digest());
  EXPECT_EQ(back.queries_total, 4u);
  EXPECT_EQ(back.exact, 1u);
  EXPECT_EQ(back.partial, 1u);
  EXPECT_EQ(back.substituted, 1u);
  EXPECT_EQ(back.prior, 1u);
  ASSERT_EQ(back.answers.size(), 4u);
  EXPECT_DOUBLE_EQ(back.answers[1].value, 123.5);
  EXPECT_EQ(back.answers[2].substitute_dataset, 7u);
}

TEST(DegradedReportTest, TruncatedImageThrows) {
  DegradedReport report;
  report.add(sample_answer(0, AnswerMode::kPartial));
  const std::string bytes = report.serialize();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(DegradedReport::deserialize(bytes.substr(0, cut)),
                 bohr::ContractViolation);
  }
  std::string garbled = bytes;
  garbled[0] ^= 0x5A;  // break the magic
  EXPECT_THROW(DegradedReport::deserialize(garbled), bohr::ContractViolation);
}

TEST(DegradedReportTest, InflatedAnswerCountIsAContractViolation) {
  // Magic and version (8 bytes), then seven u64 counters (56): the u64
  // answer count is at 64. A count no image could back must be rejected
  // before it reserves the answer list.
  constexpr std::size_t kAnswerCount = 64;
  DegradedReport report;
  report.add(sample_answer(0, AnswerMode::kPartial));
  const std::string bytes = report.serialize();
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + kAnswerCount, sizeof(stored));
  ASSERT_EQ(stored, 1u);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string inflated = bytes;
    std::memcpy(inflated.data() + kAnswerCount, &count, sizeof(count));
    EXPECT_THROW(DegradedReport::deserialize(inflated),
                 bohr::ContractViolation);
  }
}

ChurnOptions degrade_churn(std::size_t rounds) {
  ChurnOptions churn;
  churn.rounds = rounds;
  churn.degrade = true;
  return churn;
}

TEST(ChurnDegradeTest, EmptyFaultPlanIsAllExactAndInert) {
  const ExperimentConfig cfg = small_config();
  ChurnOptions plain;
  plain.rounds = 2;
  const ChurnRunResult off = run_churn_experiment(cfg, plain);
  const ChurnRunResult on = run_churn_experiment(cfg, degrade_churn(2));
  // Degrade on with no faults must not perturb the run at all.
  EXPECT_DOUBLE_EQ(on.avg_qct_seconds, off.avg_qct_seconds);
  EXPECT_EQ(on.migration_log, off.migration_log);
  EXPECT_EQ(on.migrations, off.migrations);
  EXPECT_EQ(on.queries_run, off.queries_run);
  // ... and every answer is exact with zero error.
  EXPECT_EQ(on.degraded.queries_total, on.degraded.exact);
  EXPECT_EQ(on.degraded.escalations, 0u);
  for (const DegradedAnswer& ans : on.degraded.answers) {
    EXPECT_EQ(ans.mode, AnswerMode::kExact);
    EXPECT_DOUBLE_EQ(ans.error_estimate, 0.0);
  }
  EXPECT_TRUE(off.degraded.answers.empty());
}

TEST(ChurnDegradeTest, EveryQueryAnsweredUnderPermanentOutage) {
  ExperimentConfig cfg = small_config();
  cfg.faults = net::parse_fault_plan("outage:site=0,start=0,end=1e9");
  const ChurnRunResult result = run_churn_experiment(cfg, degrade_churn(2));
  EXPECT_GT(result.degraded.queries_total, 0u);
  EXPECT_EQ(result.degraded.answers.size(), result.degraded.queries_total);
  for (const DegradedAnswer& ans : result.degraded.answers) {
    EXPECT_NE(ans.mode, AnswerMode::kExact);
    EXPECT_GT(ans.error_estimate, 0.0);
    EXPECT_LE(ans.error_estimate, 1.0);
    EXPECT_GE(ans.qct_seconds, 0.0);
  }
}

TEST(ChurnDegradeTest, SameSeedReportsAreByteIdentical) {
  ExperimentConfig cfg = small_config();
  cfg.faults = net::parse_fault_plan(
      "outage:site=1,start=0,end=200;slow-site:site=2,start=0,end=400");
  const ChurnRunResult a = run_churn_experiment(cfg, degrade_churn(3));
  const ChurnRunResult b = run_churn_experiment(cfg, degrade_churn(3));
  EXPECT_EQ(a.degraded.serialize(), b.degraded.serialize());
  EXPECT_EQ(a.degraded.digest(), b.degraded.digest());
}

TEST(ChurnDegradeTest, CrashRecoveryResumesToSameReport) {
  ExperimentConfig cfg = small_config();
  cfg.faults = net::parse_fault_plan("outage:site=0,start=0,end=1e9");
  const std::string dir = fresh_dir("degrade_crash_recover");

  ChurnOptions uninterrupted = degrade_churn(4);
  uninterrupted.checkpoint_dir = fresh_dir("degrade_plain");
  const ChurnRunResult whole = run_churn_experiment(cfg, uninterrupted);

  ChurnOptions crashing = degrade_churn(4);
  crashing.checkpoint_dir = dir;
  crashing.crash_after_round = 2;
  const ChurnRunResult crashed = run_churn_experiment(cfg, crashing);
  EXPECT_TRUE(crashed.crashed);

  ChurnOptions resuming = degrade_churn(4);
  resuming.checkpoint_dir = dir;
  resuming.recover = true;
  const ChurnRunResult resumed = run_churn_experiment(cfg, resuming);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_EQ(resumed.degraded.serialize(), whole.degraded.serialize());
  EXPECT_EQ(resumed.degraded.digest(), whole.degraded.digest());
}

TEST(ChurnDegradeTest, DegradeWithMigrationOffUsesOwnHealthMonitor) {
  ExperimentConfig cfg = small_config();
  cfg.faults = net::parse_fault_plan("outage:site=0,start=0,end=1e9");
  ChurnOptions churn = degrade_churn(2);
  churn.migration = false;
  const ChurnRunResult result = run_churn_experiment(cfg, churn);
  EXPECT_EQ(result.degraded.answers.size(), result.degraded.queries_total);
  for (const DegradedAnswer& ans : result.degraded.answers) {
    EXPECT_LE(ans.error_estimate, 1.0);
  }
}

}  // namespace
}  // namespace bohr::core
