// Crash-safe checkpointing and recovery (ISSUE 4): a run killed at any
// phase boundary and restarted with recovery must produce a
// PrepareReport byte-identical to an uninterrupted run, corrupt
// snapshots must be rejected in favour of older intact ones, and a
// checkpoint directory with nothing usable must degrade to preparing
// from scratch — never to a wrong answer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/checkpoint.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "olap/cube_io.h"
#include "rows_crc.h"
#include "snapshot_files.h"
#include "../temp_dir.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;
using snapshot_files::file_names;
using snapshot_files::read_bytes;
using snapshot_files::reseal_manifest;
using snapshot_files::write_bytes;
using temp_dir::fresh_dir;

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
  cfg.seed = 5;
  return cfg;
}

std::string plain_prepare_image(const ExperimentConfig& cfg,
                                Strategy strategy = Strategy::Bohr) {
  Controller controller = make_controller(cfg, strategy);
  return serialize_prepare_report(controller.prepare());
}

/// Runs a checkpointed prepare that crashes after `phase`.
void crash_at(ExperimentConfig cfg, const std::string& phase,
              const std::string& dir, Strategy strategy = Strategy::Bohr) {
  cfg.faults.crash_after_phase = phase;
  Controller controller = make_controller(cfg, strategy);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);
}

/// Simulates the restarted process: recover what the checkpoint
/// directory holds, resume (or prepare from scratch), return the image.
std::string recover_and_finish(const ExperimentConfig& cfg,
                               const std::string& dir,
                               RecoveryResult* details = nullptr,
                               Strategy strategy = Strategy::Bohr) {
  Controller controller = make_controller(cfg, strategy);
  RecoveryManager recovery(dir);
  RecoveryResult found = recovery.recover(controller);
  if (details != nullptr) {
    details->recovered = found.recovered;
    details->snapshot_seq = found.snapshot_seq;
    details->snapshots_rejected = found.snapshots_rejected;
  }
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  const PrepareReport& report =
      found.recovered
          ? resume_prepare(controller, std::move(found.progress), checkpoints)
          : checkpointed_prepare(controller, checkpoints);
  return serialize_prepare_report(report);
}

/// A row as the state image encodes it: its value count, then its
/// values.
std::string row_image(const olap::Row& row) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(row.size()));
  write_values(w, row);
  return w.take();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// How many cells of `live` are missing from `recovered` or differ from
/// it in any bit of count, sum, min or max; both must hold as many cells.
std::size_t differing_cells(const olap::OlapCube& live,
                            const olap::OlapCube& recovered) {
  EXPECT_EQ(live.cell_count(), recovered.cell_count());
  EXPECT_EQ(live.total_records(), recovered.total_records());
  std::size_t differing = 0;
  for (const auto& [coords, agg] : live.cells()) {
    const olap::CellAggregate* other = recovered.find(coords);
    if (other == nullptr || other->count != agg.count ||
        bits(other->sum) != bits(agg.sum) ||
        bits(other->min) != bits(agg.min) ||
        bits(other->max) != bits(agg.max)) {
      ++differing;
    }
  }
  return differing;
}

TEST(RecoveryTest, CheckpointedPrepareMatchesPlainPrepare) {
  const ExperimentConfig cfg = small_config();
  const std::string dir = fresh_dir("ck-plain");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  const std::string staged =
      serialize_prepare_report(checkpointed_prepare(controller, checkpoints));
  EXPECT_EQ(staged, plain_prepare_image(cfg));
  EXPECT_EQ(checkpoints.snapshots_written(), Controller::kPrepareStepCount);
  // A snapshot holds rows, not cubes.
  for (const char* snapshot : {"snapshot-3", "snapshot-4"}) {
    EXPECT_EQ(file_names(fs::path(dir) / snapshot),
              (std::vector<std::string>{"MANIFEST", "state.bin"}))
        << snapshot;
  }
}

TEST(RecoveryTest, CrashAtEveryPhaseBoundaryRecoversByteIdentical) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::vector<std::string>& phases = prepare_phase_names();
  ASSERT_EQ(phases.size(), Controller::kPrepareStepCount);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE(phases[i]);
    const std::string dir = fresh_dir("ck-crash-" + phases[i]);
    crash_at(cfg, phases[i], dir);
    RecoveryResult details;
    EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
    EXPECT_TRUE(details.recovered);
    EXPECT_EQ(details.snapshot_seq, i + 1);  // newest = crash phase's
    EXPECT_EQ(details.snapshots_rejected, 0u);
  }
}

TEST(RecoveryTest, RecoveryAfterMovementRebuildsTheLiveCubesAndAnswers) {
  // Movement appends each source's rows to a destination batch by batch,
  // while recovery folds every site's rows in one pass. Both fold each
  // cell in row order, so the cubes must agree bit for bit, and so must
  // the degraded answers read from them.
  for (const workload::WorkloadKind kind :
       {workload::WorkloadKind::BigData, workload::WorkloadKind::TpcDs,
        workload::WorkloadKind::Facebook}) {
    SCOPED_TRACE(workload::to_string(kind));
    ExperimentConfig cfg = small_config();
    cfg.workload = kind;
    cfg.n_datasets = 3;
    const std::string dir = fresh_dir("ck-live-vs-recovered");
    Controller live = make_controller(cfg, Strategy::Bohr);
    CheckpointManager checkpoints(dir, 2, &live.options().faults);
    ASSERT_GT(checkpointed_prepare(live, checkpoints).rows_moved, 0u);

    Controller recovered = make_controller(cfg, Strategy::Bohr);
    const RecoveryResult found = RecoveryManager(dir).recover(recovered);
    ASSERT_TRUE(found.recovered);
    ASSERT_EQ(found.progress.completed_steps, Controller::kPrepareStepCount);

    for (std::size_t a = 0; a < live.datasets().size(); ++a) {
      const DatasetState& dl = live.datasets()[a];
      const DatasetState& dr = recovered.datasets()[a];
      for (std::size_t s = 0; s < dl.site_count(); ++s) {
        SCOPED_TRACE("dataset " + std::to_string(a) + " site " +
                     std::to_string(s));
        const olap::DatasetCubes& cl = dl.cubes_at(s);
        const olap::DatasetCubes& cr = dr.cubes_at(s);
        EXPECT_EQ(differing_cells(cl.base_cube(), cr.base_cube()), 0u);
        ASSERT_EQ(cl.query_type_count(), cr.query_type_count());
        for (olap::QueryTypeId t = 0; t < cl.query_type_count(); ++t) {
          EXPECT_EQ(differing_cells(cl.dimension_cube(t),
                                    cr.dimension_cube(t)),
                    0u)
              << "dimension cube " << t;
        }
      }
    }

    // Lose every home site of one dataset at a time, so the ladder must
    // answer its queries from the other datasets' surviving sites.
    const DegradationService live_ladder(live.datasets(), live.similarity(),
                                         DegradeOptions{});
    const DegradationService recovered_ladder(
        recovered.datasets(), recovered.similarity(), DegradeOptions{});
    DegradedReport live_answers;
    DegradedReport recovered_answers;
    for (std::size_t a = 0; a < live.datasets().size(); ++a) {
      const DatasetState& d = live.datasets()[a];
      std::vector<bool> site_ok(d.site_count());
      for (std::size_t s = 0; s < d.site_count(); ++s) {
        site_ok[s] = d.rows_at(s).empty();
      }
      for (std::size_t t = 0; t < d.bundle().query_types.size(); ++t) {
        live_answers.add(live_ladder.answer(a, t, site_ok));
        recovered_answers.add(recovered_ladder.answer(a, t, site_ok));
        EXPECT_EQ(bits(live_answers.answers.back().value),
                  bits(recovered_answers.answers.back().value))
            << "dataset " << a << " spec " << t;
      }
    }
    EXPECT_GT(live_answers.substituted, 0u);
    EXPECT_EQ(live_answers.digest(), recovered_answers.digest());
  }
}

TEST(RecoveryTest, MidMovementRecoveryUnderTightLagTruncation) {
  // A tight deadline forces truncation and a reduce re-plan inside
  // step_execute_movement; a crash after movement_plan resumes straight
  // into that degraded path and must still match the fresh run.
  ExperimentConfig cfg = small_config();
  cfg.lag_seconds = 0.5;
  cfg.enforce_lag_deadline = true;
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-tight-lag");
  crash_at(cfg, "movement_plan", dir);
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 3u);
}

TEST(RecoveryTest, RecoveryWorksForCubelessStrategies) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg, Strategy::Iridium);
  const std::string dir = fresh_dir("ck-iridium");
  crash_at(cfg, "placement", dir, Strategy::Iridium);
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details, Strategy::Iridium),
            expected);
  EXPECT_TRUE(details.recovered);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackToOlderIntactOne) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-fallback");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // Flip one byte of the newest snapshot's state image on disk.
  const fs::path victim = fs::path(dir) / "snapshot-2" / "state.bin";
  ASSERT_TRUE(fs::exists(victim));
  std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(100);
  char byte = 0;
  file.seekg(100);
  file.get(byte);
  file.seekp(100);
  file.put(static_cast<char>(byte ^ 0x20));
  file.close();

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, InflatedCountIsRejectedAndFallsBackToOlderSnapshot) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-inflated-count");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // The state image opens with magic (8), version (4), step count (4),
  // RNG state (4 x 8 + 8 + 1), a reserved byte (1) and two report doubles
  // (16); the u32 at offset 74 counts the placement's per-dataset
  // movement matrices. Claim four billion of them.
  constexpr std::streamoff kMatrixCount = 74;
  const fs::path snapshot = fs::path(dir) / "snapshot-2";
  std::fstream file(snapshot / "state.bin",
                    std::ios::binary | std::ios::in | std::ios::out);
  std::uint32_t count = 0;
  file.seekg(kMatrixCount);
  file.read(reinterpret_cast<char*>(&count), sizeof(count));
  ASSERT_EQ(count, cfg.n_datasets);
  count = 0xFFFFFFFFu;
  file.seekp(kMatrixCount);
  file.write(reinterpret_cast<const char*>(&count), sizeof(count));
  file.close();
  reseal_manifest(snapshot);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, InflatedChurnRoundCountIsAContractViolation) {
  const ExperimentConfig cfg = small_config();
  const std::string dir = fresh_dir("ck-churn-rounds");
  ChurnOptions churn;
  churn.rounds = 4;
  churn.checkpoint_dir = dir;
  churn.crash_after_round = 2;  // leaves snapshots 1 and 2
  ASSERT_TRUE(run_churn_experiment(cfg, churn).crashed);

  // The churn image opens with magic (4), version (8) and five round
  // counters (40); the u64 at offset 52 counts the per-round QCTs that
  // follow. Claim 2^34 of them, 128 GiB of doubles.
  constexpr std::streamoff kRoundCount = 52;
  const fs::path snapshot = fs::path(dir) / "snapshot-2";
  std::fstream file(snapshot / "migration.bin",
                    std::ios::binary | std::ios::in | std::ios::out);
  std::uint64_t rounds = 0;
  file.seekg(kRoundCount);
  file.read(reinterpret_cast<char*>(&rounds), sizeof(rounds));
  ASSERT_EQ(rounds, 2u);
  rounds = std::uint64_t{1} << 34;
  file.seekp(kRoundCount);
  file.write(reinterpret_cast<const char*>(&rounds), sizeof(rounds));
  file.close();
  reseal_manifest(snapshot);

  churn.crash_after_round = 0;
  churn.recover = true;
  EXPECT_THROW(run_churn_experiment(cfg, churn), ContractViolation);
}

TEST(RecoveryTest, RowOfTheWrongArityIsRejectedAndFallsBackToOlderSnapshot) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-row-arity");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // Drop the last value of one row, under a resealed manifest: the image
  // still decodes, so only the check against the schema can see it.
  const Controller initial = make_controller(cfg, Strategy::Bohr);
  const DatasetState& d = initial.datasets().front();
  std::size_t site = 0;
  while (d.rows_at(site).empty()) ++site;
  const olap::Row& row = d.rows_at(site).front();
  const std::string original = row_image(row);
  const std::string shortened =
      row_image(olap::Row(row.begin(), row.end() - 1));
  const fs::path snapshot = fs::path(dir) / "snapshot-2";
  std::string image = read_bytes(snapshot / "state.bin");
  const std::size_t at = image.find(original);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(image.find(original, at + 1), std::string::npos);
  image.replace(at, original.size(), shortened);
  write_bytes(snapshot / "state.bin", image);
  reseal_manifest(snapshot);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, SnapshotThatListsCubeFilesStillRecovers) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-cube-files");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // Older snapshots also held each site's base cube as
  // cube-<dataset>-<site>.cube, listed in the manifest. Before movement
  // the initial controller's cubes are the ones such a snapshot held.
  const Controller initial = make_controller(cfg, Strategy::Bohr);
  const fs::path snapshot = fs::path(dir) / "snapshot-2";
  auto snap = snapshot_files::Snapshot::load(snapshot);
  for (std::size_t a = 0; a < initial.datasets().size(); ++a) {
    const DatasetState& d = initial.datasets()[a];
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      const std::string name =
          "cube-" + std::to_string(a) + "-" + std::to_string(s) + ".cube";
      snap.files[name] = olap::encode_cube(d.cubes_at(s).base_cube());
      write_bytes(snapshot / name, snap.files[name]);
    }
  }
  ASSERT_EQ(snap.files.size(), 1 + cfg.n_datasets * cfg.generator.sites);
  write_bytes(snapshot / "MANIFEST", snap.manifest());

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 2u);
  EXPECT_EQ(details.snapshots_rejected, 0u);
}

TEST(RecoveryTest, BitFlipInManifestChecksumDigitIsRejected) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-manifest-digit");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // Bit 0x40 turns any hex digit into a non-hex character: the damage a
  // bit-flip storage fault does to the self line's first digit.
  const fs::path manifest = fs::path(dir) / "snapshot-2" / "MANIFEST";
  std::string text = read_bytes(manifest);
  const std::size_t digit = text.rfind("self ") + 5;
  text[digit] = static_cast<char>(text[digit] ^ 0x40);
  write_bytes(manifest, text);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, SnapshotNumberBeyondSizeTIsIgnored) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-huge-seq");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2
  fs::create_directories(fs::path(dir) / "snapshot-99999999999999999999999");

  EXPECT_NO_THROW(CheckpointManager checkpoints(dir));
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 2u);
  EXPECT_EQ(details.snapshots_rejected, 0u);
  // Numbering continued from snapshot 2, as if the directory were absent.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-4" / "MANIFEST"));
}

TEST(RecoveryTest, InjectedBitFlipRejectsSnapshotAndFallsBackToScratch) {
  ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-bitflip");
  // File 0 of the run is snapshot-1's state.bin; flipping a bit in it
  // while the manifest keeps the intended checksum models a lying disk.
  cfg.faults = net::parse_fault_plan("crash:phase=similarity;bit-flip:file=0");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);

  ExperimentConfig clean = small_config();
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(clean, dir, &details), expected);
  EXPECT_FALSE(details.recovered);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, TornManifestMeansTheSnapshotWasNeverCommitted) {
  ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);

  // Count the files one snapshot holds so the torn write can target the
  // manifest (the last file written) without hardcoding the layout.
  std::size_t files_per_snapshot = 0;
  {
    ExperimentConfig probe_cfg = cfg;
    probe_cfg.faults = net::parse_fault_plan("crash:phase=similarity");
    const std::string probe_dir = fresh_dir("ck-torn-probe");
    Controller controller = make_controller(probe_cfg, Strategy::Bohr);
    CheckpointManager checkpoints(probe_dir, 2, &controller.options().faults);
    EXPECT_THROW(checkpointed_prepare(controller, checkpoints),
                 CrashInjected);
    files_per_snapshot = checkpoints.files_written();
    ASSERT_GT(files_per_snapshot, 1u);
  }

  const std::string dir = fresh_dir("ck-torn");
  cfg.faults = net::parse_fault_plan(
      "crash:phase=similarity;torn-write:file=" +
      std::to_string(files_per_snapshot - 1) + ",fraction=0.5");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);

  ExperimentConfig clean = small_config();
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(clean, dir, &details), expected);
  EXPECT_FALSE(details.recovered);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, PruningKeepsOnlyTheNewestSnapshots) {
  const ExperimentConfig cfg = small_config();
  const std::string dir = fresh_dir("ck-prune");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  checkpointed_prepare(controller, checkpoints);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-1"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-2"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-3" / "MANIFEST"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-4" / "MANIFEST"));
}

TEST(RecoveryTest, ReservedStateByteIsZeroAndNonZeroIsRejected) {
  // The state image opens with magic (8), version (4), step count (4)
  // and RNG state (4 x 8 + 8 + 1); the byte at offset 57 is reserved.
  constexpr std::size_t kReserved = 57;
  const ExperimentConfig cfg = small_config();

  // Every snapshot of a full prepare writes it as 0.
  const std::string all_dir = fresh_dir("ck-reserved-all");
  {
    Controller controller = make_controller(cfg, Strategy::Bohr);
    CheckpointManager checkpoints(all_dir, Controller::kPrepareStepCount,
                                  &controller.options().faults);
    checkpointed_prepare(controller, checkpoints);
  }
  for (std::size_t seq = 1; seq <= Controller::kPrepareStepCount; ++seq) {
    const std::string image = read_bytes(
        fs::path(all_dir) / ("snapshot-" + std::to_string(seq)) / "state.bin");
    ASSERT_GT(image.size(), kReserved);
    EXPECT_EQ(image[kReserved], 0) << "snapshot " << seq;
  }

  // Set to 1 under a resealed manifest, it rejects the newest snapshot,
  // and the run resumes from the older one to the same report.
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-reserved");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2
  const fs::path snapshot = fs::path(dir) / "snapshot-2";
  std::string image = read_bytes(snapshot / "state.bin");
  ASSERT_EQ(image[kReserved], 0);
  image[kReserved] = 1;
  write_bytes(snapshot / "state.bin", image);
  reseal_manifest(snapshot);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, EmptyDirectoryRecoversNothing) {
  const std::string dir = fresh_dir("ck-empty");
  fs::create_directories(dir);
  const ExperimentConfig cfg = small_config();
  Controller controller = make_controller(cfg, Strategy::Bohr);
  RecoveryManager recovery(dir);
  const RecoveryResult found = recovery.recover(controller);
  EXPECT_FALSE(found.recovered);
  EXPECT_EQ(found.snapshots_rejected, 0u);
}

TEST(RecoveryTest, UnknownCrashPhaseIsACallerError) {
  ExperimentConfig cfg = small_config();
  cfg.faults.crash_after_phase = "lunch";
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(fresh_dir("ck-bad-phase"), 2,
                                &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints),
               ContractViolation);
}

}  // namespace
}  // namespace bohr::core
