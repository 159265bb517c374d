// Crash-safe checkpointing and recovery for the controller (§5's
// control plane made durable).
//
// The staged prepare() pipeline (Controller::step_*) is cut at four
// phase boundaries — similarity, placement, movement_plan, movement —
// and a snapshot is taken after each completed step. One snapshot is a
// directory `snapshot-<seq>/` holding:
//
//   state.bin       controller state: completed steps, the prepare
//                   report so far, movement plans, similarity results,
//                   RNG state, and every dataset's per-site rows
//   migration.bin   the churn runner's migration state, for churn runs
//   MANIFEST        text manifest listing each file's size and CRC32,
//                   self-checksummed and written LAST — a snapshot
//                   without a valid manifest was never committed and is
//                   ignored by recovery
//
// A snapshot holds no cubes: a cube is a function of its site's rows,
// and recovery rebuilds every cube from the restored rows with the same
// row-order fold that construction and movement use, so a recovered
// cube equals the live one cell for cell, bit for bit.
//
// Every file is written crash-atomically (temp + flush + rename), and
// the manifest-written-last protocol makes the whole snapshot atomic: a
// crash mid-snapshot leaves either the previous committed snapshot or
// both. RecoveryManager walks snapshots newest-first, validates every
// checksum, and falls back to the next older snapshot on any mismatch —
// torn writes and bit flips (injectable via net::StorageFault) degrade
// to an older consistent state, never to a wrong one.
//
// A recovered run resumes the remaining steps and produces a
// PrepareReport byte-identical to an uninterrupted run: the steps
// consume only snapshotted state (rows, similarity, RNG) and cubes
// rebuilt from those rows, and crash or storage faults never perturb
// the data plane (FaultPlan::data_plane_quiet).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "net/faults.h"

namespace bohr::core {

/// Unrecoverable checkpoint failure: the checkpoint directory cannot be
/// created or a snapshot file cannot be written. Corruption found while
/// *reading* snapshots is not an error — recovery falls back.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown when an injected crash point (FaultPlan::crash_after_phase)
/// fires. Tests catch it in-process; bohr_sim exits with status 3.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(const std::string& phase)
      : std::runtime_error("injected crash after phase '" + phase + "'") {}
};

/// Names of the prepare phases at whose boundaries snapshots are taken,
/// index-aligned with PrepareProgress::completed_steps - 1.
const std::vector<std::string>& prepare_phase_names();

/// Serialized byte image of a PrepareReport. Deterministic (doubles as
/// IEEE-754 bit patterns), so two reports are equal iff their images
/// are — this is the byte-identity check of the recovery tests. The
/// wall-clock profiling fields (similarity_seconds, decision.lp_seconds)
/// are canonicalized to zero: they measure the host, not the
/// computation.
std::string serialize_prepare_report(const PrepareReport& report);

/// Writes snapshots into a checkpoint directory and prunes old ones.
class CheckpointManager {
 public:
  /// @param faults optional fault plan (not owned; may outlive calls):
  /// its storage_faults corrupt the Nth file written through this
  /// manager, counted per process across all snapshots.
  CheckpointManager(std::string dir, std::size_t keep_snapshots = 2,
                    const net::FaultPlan* faults = nullptr);

  /// Writes snapshot-<seq> capturing `controller` and `progress`, then
  /// prunes committed snapshots beyond the keep budget. `migration`,
  /// when given, is an opaque migration-state image (the churn runner's
  /// MigrationController plus its round bookkeeping) stored as an extra
  /// `migration.bin` snapshot file under the same manifest protocol —
  /// a crash mid-migration recovers bucket placement along with
  /// everything else.
  void snapshot(const Controller& controller, const PrepareProgress& progress,
                const std::string* migration = nullptr);

  std::size_t snapshots_written() const { return snapshots_written_; }
  std::size_t files_written() const { return files_written_; }
  const std::string& dir() const { return dir_; }

 private:
  void write_file(const std::string& path, std::string bytes);

  std::string dir_;
  std::size_t keep_snapshots_;
  const net::FaultPlan* faults_;
  std::size_t next_seq_ = 1;
  std::size_t snapshots_written_ = 0;
  std::size_t files_written_ = 0;  ///< storage-fault targeting counter
};

/// What recovery found and restored.
struct RecoveryResult {
  bool recovered = false;          ///< an intact snapshot was restored
  std::size_t snapshot_seq = 0;    ///< which snapshot was used
  std::size_t snapshots_rejected = 0;  ///< corrupt snapshots skipped
  PrepareProgress progress;        ///< restored mid-prepare state
  /// Opaque migration-state image, when the snapshot carried one
  /// (snapshots from before the migration controller existed, or from
  /// non-churn runs, simply lack the file).
  std::optional<std::string> migration_image;
};

/// Validates snapshots on startup and restores the newest intact one.
class RecoveryManager {
 public:
  explicit RecoveryManager(std::string dir);

  /// Walks snapshots newest-first; for each, verifies the manifest's
  /// self-checksum and every file's size and CRC32, then deserializes
  /// and restores rows (rebuilding every cube from them), similarity
  /// results, and RNG state into `controller`. Any mismatch rejects the
  /// snapshot and falls back to the next older one. Returns
  /// recovered=false when no intact snapshot exists (callers then
  /// prepare from scratch).
  RecoveryResult recover(Controller& controller);

 private:
  std::string dir_;
};

/// Runs prepare() step by step, snapshotting after every step and
/// honouring the fault plan's crash point (throws CrashInjected right
/// after the named phase's snapshot commits). Equivalent to
/// controller.prepare() plus durability.
const PrepareReport& checkpointed_prepare(Controller& controller,
                                          CheckpointManager& checkpoints);

/// Resumes a recovered prepare: runs the steps `progress` has not yet
/// completed (snapshotting each — a resumed run is as durable as a
/// fresh one, and a mid-movement recovery re-simulates the planned
/// flows through the lag-deadline truncation and replan path), then
/// finishes. `progress` is consumed.
const PrepareReport& resume_prepare(Controller& controller,
                                    PrepareProgress progress,
                                    CheckpointManager& checkpoints);

}  // namespace bohr::core
