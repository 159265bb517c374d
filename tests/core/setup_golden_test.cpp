// Pins the modeled output of set-up: small TPC-DS and BigData Bohr
// controllers go through prepare() and run_all_queries(), and three
// fingerprints must equal constants recorded before set-up stopped
// building cube snapshots on ingest and started computing movement keys
// in one pass per source:
//   - the crc32 of the serialized prepare report (placement, bytes and
//     rows moved, LP iterations; wall-clock fields canonicalized);
//   - a crc32 over every site's rows after movement, in row order, so a
//     change to which rows move, or to their order, fails here;
//   - the batch latency digest (every execution's QCT, repeated by its
//     recurrence count, in execution order);
//   - a crc32 over the sorted cells of every site's base and dimension
//     cubes, after construction and again after prepare(), so a change
//     to any cell's bits, or to which cells a cube holds, fails here.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/crc32.h"
#include "common/latency.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "rows_crc.h"

namespace bohr::core {
namespace {

ExperimentConfig golden_config(workload::WorkloadKind kind) {
  ExperimentConfig cfg;
  cfg.workload = kind;
  cfg.n_datasets = 3;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 120;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 29;
  return cfg;
}

struct SetupFingerprint {
  std::uint32_t prepare_crc = 0;
  std::uint32_t rows_crc = 0;
  std::uint32_t qct_digest = 0;
  std::uint32_t ingest_cubes_crc = 0;
  std::uint32_t prepared_cubes_crc = 0;
};

SetupFingerprint run_setup(workload::WorkloadKind kind) {
  Controller controller =
      make_controller(golden_config(kind), Strategy::Bohr);
  SetupFingerprint out;
  out.ingest_cubes_crc = cubes_crc(controller.datasets());
  const PrepareReport& report = controller.prepare();
  // The pin is only worth something if similarity-guided movement ran.
  EXPECT_GT(report.rows_moved, 0u);
  out.prepare_crc = crc32(serialize_prepare_report(report));
  out.rows_crc = rows_crc(controller.datasets());
  out.prepared_cubes_crc = cubes_crc(controller.datasets());
  LatencyRecorder qct;
  for (const QueryExecution& exec : controller.run_all_queries()) {
    for (std::size_t r = 0; r < exec.recurrences; ++r) {
      qct.add(exec.result.qct_seconds);
    }
  }
  out.qct_digest = qct.digest();
  return out;
}

void expect_fingerprint(const SetupFingerprint& got,
                        const SetupFingerprint& want) {
  EXPECT_EQ(got.prepare_crc, want.prepare_crc)
      << std::hex << "actual prepare crc32 0x" << got.prepare_crc;
  EXPECT_EQ(got.rows_crc, want.rows_crc)
      << std::hex << "actual rows crc32 0x" << got.rows_crc;
  EXPECT_EQ(got.qct_digest, want.qct_digest)
      << std::hex << "actual qct digest 0x" << got.qct_digest;
  EXPECT_EQ(got.ingest_cubes_crc, want.ingest_cubes_crc)
      << std::hex << "actual ingest cubes crc32 0x" << got.ingest_cubes_crc;
  EXPECT_EQ(got.prepared_cubes_crc, want.prepared_cubes_crc)
      << std::hex << "actual prepared cubes crc32 0x"
      << got.prepared_cubes_crc;
}

TEST(SetupGoldenTest, TpcDsBohr) {
  expect_fingerprint(run_setup(workload::WorkloadKind::TpcDs),
                     {0x2bc98c0au, 0xdd285554u, 0x8cd173b1u, 0x1c46d035u,
                      0x3a0c8636u});
}

TEST(SetupGoldenTest, BigDataBohr) {
  expect_fingerprint(run_setup(workload::WorkloadKind::BigData),
                     {0x1c1948f2u, 0xae3c8727u, 0xba32a704u, 0x2d1e409bu,
                      0x43dc3492u});
}

}  // namespace
}  // namespace bohr::core
