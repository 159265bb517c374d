#include "core/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/phase_timer.h"

namespace bohr::core {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kStateMagic = "BOHRCKPT";
constexpr std::uint32_t kStateVersion = 1;
constexpr const char* kStateFile = "state.bin";
constexpr const char* kMigrationFile = "migration.bin";
constexpr const char* kManifestFile = "MANIFEST";
constexpr const char* kManifestHeader = "BOHR-MANIFEST v1";
constexpr const char* kSnapshotPrefix = "snapshot-";

/// Snapshot-local corruption: rejects the snapshot, recovery falls back.
class SnapshotRejected : public std::runtime_error {
 public:
  explicit SnapshotRejected(const std::string& why)
      : std::runtime_error(why) {}
};

using StateReader = ByteReader<SnapshotRejected>;

// Smallest encodings, for the minimum element sizes StateReader::count
// checks counts against.
constexpr std::size_t kU8 = 1;
constexpr std::size_t kU32 = 4;
constexpr std::size_t kU64 = 8;
constexpr std::size_t kF64 = 8;

// ---- report / progress serialization ----------------------------------

void write_doubles(ByteWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const double d : v) w.f64(d);
}

std::vector<double> read_doubles(StateReader& r) {
  std::vector<double> v(r.count<std::uint32_t>(kF64));
  for (auto& d : v) d = r.f64();
  return v;
}

void write_report(ByteWriter& w, const PrepareReport& report) {
  w.f64(report.similarity_seconds);
  w.f64(report.probe_bytes);

  const PlacementDecision& d = report.decision;
  w.u32(static_cast<std::uint32_t>(d.move_bytes.size()));
  for (const auto& per_dataset : d.move_bytes) {
    w.u32(static_cast<std::uint32_t>(per_dataset.size()));
    for (const auto& row : per_dataset) write_doubles(w, row);
  }
  write_doubles(w, d.reduce_fractions);
  w.f64(d.predicted_shuffle_seconds);
  w.f64(d.lp_seconds);
  w.u64(d.lp_iterations);
  w.u8(d.lp_converged ? 1 : 0);

  w.f64(report.movement_seconds);
  w.f64(report.bytes_moved);
  w.u64(report.rows_moved);
  w.u8(report.movement_within_lag ? 1 : 0);

  const FaultReport& f = report.faults;
  w.u64(f.outages_injected);
  w.u64(f.degradations_injected);
  w.u64(f.kills_injected);
  w.u64(f.probe_pairs_lost);
  w.u64(f.lp_fallbacks);
  w.u64(f.movement_interruptions);
  w.u64(f.movement_retries);
  w.u64(f.movement_flows_failed);
  w.u64(f.movement_replans);
  w.u64(f.rows_truncated);
  w.f64(f.deadline_shortfall_bytes);
}

PrepareReport read_report(StateReader& r) {
  PrepareReport report;
  report.similarity_seconds = r.f64();
  report.probe_bytes = r.f64();

  PlacementDecision& d = report.decision;
  // Each matrix and each of its rows starts with a u32 count.
  d.move_bytes.resize(r.count<std::uint32_t>(kU32));
  for (auto& per_dataset : d.move_bytes) {
    per_dataset.resize(r.count<std::uint32_t>(kU32));
    for (auto& row : per_dataset) row = read_doubles(r);
  }
  d.reduce_fractions = read_doubles(r);
  d.predicted_shuffle_seconds = r.f64();
  d.lp_seconds = r.f64();
  d.lp_iterations = r.u64();
  d.lp_converged = r.u8() != 0;

  report.movement_seconds = r.f64();
  report.bytes_moved = r.f64();
  report.rows_moved = r.u64();
  report.movement_within_lag = r.u8() != 0;

  FaultReport& f = report.faults;
  f.outages_injected = r.u64();
  f.degradations_injected = r.u64();
  f.kills_injected = r.u64();
  f.probe_pairs_lost = r.u64();
  f.lp_fallbacks = r.u64();
  f.movement_interruptions = r.u64();
  f.movement_retries = r.u64();
  f.movement_flows_failed = r.u64();
  f.movement_replans = r.u64();
  f.rows_truncated = r.u64();
  f.deadline_shortfall_bytes = r.f64();
  return report;
}

void write_plans(ByteWriter& w, const std::vector<MovementPlan>& plans) {
  w.u32(static_cast<std::uint32_t>(plans.size()));
  for (const MovementPlan& plan : plans) {
    w.u32(static_cast<std::uint32_t>(plan.flows.size()));
    for (const PlannedFlow& flow : plan.flows) {
      w.u32(static_cast<std::uint32_t>(flow.src));
      w.u32(static_cast<std::uint32_t>(flow.dst));
      w.f64(flow.bytes);
      w.u64(flow.row_indices.size());
      for (const std::size_t i : flow.row_indices) w.u64(i);
    }
    w.f64(plan.planned_bytes);
    w.u64(plan.planned_rows);
  }
}

std::vector<MovementPlan> read_plans(StateReader& r) {
  // A plan is at least its flow count, planned bytes and planned rows; a
  // flow at least src, dst, bytes and its row-index count.
  std::vector<MovementPlan> plans(r.count<std::uint32_t>(kU32 + kF64 + kU64));
  for (MovementPlan& plan : plans) {
    plan.flows.resize(r.count<std::uint32_t>(kU32 + kU32 + kF64 + kU64));
    for (PlannedFlow& flow : plan.flows) {
      flow.src = r.u32();
      flow.dst = r.u32();
      flow.bytes = r.f64();
      flow.row_indices.resize(r.count<std::uint64_t>(kU64));
      for (auto& i : flow.row_indices) i = r.u64();
    }
    plan.planned_bytes = r.f64();
    plan.planned_rows = r.u64();
  }
  return plans;
}

void write_similarity(ByteWriter& w,
                      const std::vector<DatasetSimilarity>& sims) {
  w.u32(static_cast<std::uint32_t>(sims.size()));
  for (const DatasetSimilarity& sim : sims) {
    write_doubles(w, sim.self);
    w.u32(static_cast<std::uint32_t>(sim.pair.size()));
    for (const auto& row : sim.pair) write_doubles(w, row);
    w.u32(static_cast<std::uint32_t>(sim.matched_keys.size()));
    for (const auto& per_dst : sim.matched_keys) {
      w.u32(static_cast<std::uint32_t>(per_dst.size()));
      for (const auto& keys : per_dst) {
        // Sets serialize sorted so the byte image is deterministic
        // (lookup-only consumers make the in-memory order irrelevant).
        std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
        std::sort(sorted.begin(), sorted.end());
        w.u64(sorted.size());
        for (const std::uint64_t k : sorted) w.u64(k);
      }
    }
    w.f64(sim.checking_seconds);
    w.f64(sim.probe_bytes);
    w.u64(sim.probe_pairs_lost);
  }
}

std::vector<DatasetSimilarity> read_similarity(StateReader& r) {
  // A dataset's entry is at least three u32 counts (self, pair, matched
  // keys) plus checking seconds, probe bytes and lost pairs; a key set is
  // at least its u64 count.
  std::vector<DatasetSimilarity> sims(
      r.count<std::uint32_t>(3 * kU32 + kF64 + kF64 + kU64));
  for (DatasetSimilarity& sim : sims) {
    sim.self = read_doubles(r);
    sim.pair.resize(r.count<std::uint32_t>(kU32));
    for (auto& row : sim.pair) row = read_doubles(r);
    sim.matched_keys.resize(r.count<std::uint32_t>(kU32));
    for (auto& per_dst : sim.matched_keys) {
      per_dst.resize(r.count<std::uint32_t>(kU64));
      for (auto& keys : per_dst) {
        const std::size_t n = r.count<std::uint64_t>(kU64);
        keys.reserve(n);
        for (std::size_t i = 0; i < n; ++i) keys.insert(r.u64());
      }
    }
    sim.checking_seconds = r.f64();
    sim.probe_bytes = r.f64();
    sim.probe_pairs_lost = r.u64();
  }
  return sims;
}

void write_rows(ByteWriter& w, const std::vector<olap::Row>& rows) {
  w.u64(rows.size());
  for (const olap::Row& row : rows) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const olap::Value& value : row) {
      if (const auto* i = std::get_if<std::int64_t>(&value)) {
        w.u8(0);
        w.u64(static_cast<std::uint64_t>(*i));
      } else if (const auto* d = std::get_if<double>(&value)) {
        w.u8(1);
        w.f64(*d);
      } else {
        w.u8(2);
        w.str<std::uint32_t>(std::get<std::string>(value));
      }
    }
  }
}

std::vector<olap::Row> read_rows(StateReader& r) {
  // A row is at least its u32 value count; a value at least its tag plus
  // an empty string's u32 length.
  std::vector<olap::Row> rows(r.count<std::uint64_t>(kU32));
  for (olap::Row& row : rows) {
    row.resize(r.count<std::uint32_t>(kU8 + kU32));
    for (olap::Value& value : row) {
      switch (r.u8()) {
        case 0:
          value = static_cast<std::int64_t>(r.u64());
          break;
        case 1:
          value = r.f64();
          break;
        case 2:
          value = r.str<std::uint32_t>();
          break;
        default:
          r.fail("unknown value tag in row image");
      }
    }
  }
  return rows;
}

/// The full state image of one snapshot.
std::string build_state_image(const Controller& controller,
                              const PrepareProgress& progress) {
  ByteWriter w;
  w.raw(kStateMagic);
  w.u32(kStateVersion);
  w.u32(static_cast<std::uint32_t>(progress.completed_steps));

  const Rng::State rng = controller.rng_state();
  for (const std::uint64_t word : rng.words) w.u64(word);
  w.f64(rng.spare);
  w.u8(rng.has_spare ? 1 : 0);

  w.u8(0);  // reserved

  write_report(w, progress.report);
  write_plans(w, progress.plans);
  write_similarity(w, controller.similarity());

  const auto& datasets = controller.datasets();
  w.u32(static_cast<std::uint32_t>(datasets.size()));
  for (const DatasetState& d : datasets) {
    w.u32(static_cast<std::uint32_t>(d.site_count()));
    w.u8(d.has_cubes() ? 1 : 0);
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      write_rows(w, d.rows_at(s));
    }
  }
  return w.take();
}

struct DecodedState {
  PrepareProgress progress;
  Rng::State rng;
  std::vector<DatasetSimilarity> similarity;
  std::vector<std::vector<std::vector<olap::Row>>> dataset_rows;
  std::vector<bool> dataset_has_cubes;
};

DecodedState decode_state_image(const std::string& image) {
  StateReader r(image, "state image");
  r.magic(kStateMagic);
  if (r.u32() != kStateVersion) r.fail("unsupported version");

  DecodedState state;
  state.progress.completed_steps = r.u32();
  if (state.progress.completed_steps == 0 ||
      state.progress.completed_steps > Controller::kPrepareStepCount) {
    r.fail("invalid step count");
  }
  for (auto& word : state.rng.words) word = r.u64();
  state.rng.spare = r.f64();
  state.rng.has_spare = r.u8() != 0;

  if (r.u8() != 0) r.fail("reserved byte is not 0");

  state.progress.report = read_report(r);
  state.progress.plans = read_plans(r);
  state.similarity = read_similarity(r);

  // A dataset is at least its site count and cube flag; a site's rows at
  // least their u64 count.
  const std::size_t dataset_count = r.count<std::uint32_t>(kU32 + kU8);
  state.dataset_rows.resize(dataset_count);
  state.dataset_has_cubes.resize(dataset_count);
  for (std::size_t a = 0; a < dataset_count; ++a) {
    const std::size_t sites = r.count<std::uint32_t>(kU64);
    state.dataset_has_cubes[a] = r.u8() != 0;
    state.dataset_rows[a].resize(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      state.dataset_rows[a][s] = read_rows(r);
    }
  }
  r.expect_end();
  return state;
}

// ---- manifest ----------------------------------------------------------

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Builds the manifest text for a set of (name, intended bytes) files.
/// The trailing `self` line checksums every preceding byte, so a torn
/// or flipped manifest can never validate.
std::string build_manifest(
    const std::vector<std::pair<std::string, const std::string*>>& files) {
  std::string text = std::string(kManifestHeader) + "\n";
  for (const auto& [name, bytes] : files) {
    text += "file " + std::to_string(bytes->size()) + " " +
            hex32(crc32(*bytes)) + " " + name + "\n";
  }
  text += "self " + hex32(crc32(text)) + "\n";
  return text;
}

struct ManifestEntry {
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  std::string name;
};

/// The manifest's fixed-width hex checksum: all 8 digits must parse.
std::uint32_t parse_hex32(std::string_view digits) {
  std::uint32_t v = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v, 16);
  if (digits.size() != 8 || ec != std::errc() || ptr != end) {
    throw SnapshotRejected("manifest checksum '" + std::string(digits) +
                           "' is not 8 hex digits");
  }
  return v;
}

std::vector<ManifestEntry> parse_manifest(const std::string& text) {
  // Validate the self-checksum first: it covers everything before the
  // final "self " line.
  const std::size_t self_pos = text.rfind("self ");
  if (self_pos == std::string::npos || self_pos + 13 > text.size()) {
    throw SnapshotRejected("manifest missing self line");
  }
  const std::uint32_t stored =
      parse_hex32(std::string_view(text).substr(self_pos + 5, 8));
  if (stored != crc32(text.data(), self_pos)) {
    throw SnapshotRejected("manifest self-checksum mismatch");
  }

  std::vector<ManifestEntry> entries;
  std::istringstream lines(text.substr(0, self_pos));
  std::string line;
  if (!std::getline(lines, line) || line != kManifestHeader) {
    throw SnapshotRejected("manifest header missing");
  }
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    ManifestEntry entry;
    std::string crc_hex;
    if (!(fields >> tag >> entry.size >> crc_hex >> entry.name) ||
        tag != "file") {
      throw SnapshotRejected("manifest line malformed: " + line);
    }
    entry.crc = parse_hex32(crc_hex);
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) throw SnapshotRejected("manifest lists no files");
  return entries;
}

/// Sequence number of a snapshot directory name, or nullopt — also for
/// digits that do not fit a std::size_t.
std::optional<std::size_t> snapshot_seq(const std::string& name) {
  const std::string_view prefix = kSnapshotPrefix;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string_view digits = std::string_view(name).substr(prefix.size());
  std::size_t seq = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, seq);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return seq;
}

std::vector<std::size_t> list_snapshot_seqs(const std::string& dir) {
  std::vector<std::size_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    if (const auto seq = snapshot_seq(entry.path().filename().string())) {
      seqs.push_back(*seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace

const std::vector<std::string>& prepare_phase_names() {
  static const std::vector<std::string> names = {
      "similarity", "placement", "movement_plan", "movement"};
  return names;
}

std::string serialize_prepare_report(const PrepareReport& report) {
  // Wall-clock profiling fields measure the host, not the computation
  // (the phase-timer JSON follows the same convention), so the identity
  // image canonicalizes them to zero. Every other field is simulated or
  // counted and must match bit-for-bit across crash/recover runs.
  PrepareReport canonical = report;
  canonical.similarity_seconds = 0.0;
  canonical.decision.lp_seconds = 0.0;
  ByteWriter w;
  write_report(w, canonical);
  return w.take();
}

// ---- CheckpointManager -------------------------------------------------

CheckpointManager::CheckpointManager(std::string dir,
                                     std::size_t keep_snapshots,
                                     const net::FaultPlan* faults)
    : dir_(std::move(dir)), keep_snapshots_(keep_snapshots), faults_(faults) {
  BOHR_EXPECTS(!dir_.empty());
  BOHR_EXPECTS(keep_snapshots_ >= 1);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw CheckpointError("cannot create checkpoint dir " + dir_ + ": " +
                          ec.message());
  }
  // A recovered process keeps numbering where the crashed one stopped.
  const auto seqs = list_snapshot_seqs(dir_);
  if (!seqs.empty()) next_seq_ = seqs.back() + 1;
}

void CheckpointManager::write_file(const std::string& path,
                                   std::string bytes) {
  // Storage faults corrupt the bytes BETWEEN intent and disk: the
  // manifest records the checksum of what should have been written, so
  // recovery sees exactly what a lying disk looks like.
  if (faults_ != nullptr) {
    for (const auto& fault : faults_->storage_faults) {
      if (fault.file_index != files_written_) continue;
      if (fault.kind == net::StorageFault::Kind::kTornWrite) {
        bytes.resize(static_cast<std::size_t>(
            static_cast<double>(bytes.size()) * fault.fraction));
      } else {
        const std::size_t byte_idx = (fault.bit / 8) % std::max<std::size_t>(
                                         bytes.size(), 1);
        if (!bytes.empty()) {
          bytes[byte_idx] = static_cast<char>(
              static_cast<unsigned char>(bytes[byte_idx]) ^
              (1u << (fault.bit % 8)));
        }
      }
    }
  }
  ++files_written_;
  write_file_atomically<CheckpointError>(path, bytes);
}

void CheckpointManager::snapshot(const Controller& controller,
                                 const PrepareProgress& progress,
                                 const std::string* migration) {
  ScopedPhase phase("checkpoint.snapshot");
  BOHR_EXPECTS(progress.completed_steps >= 1);

  const std::size_t seq = next_seq_++;
  const fs::path snap_dir = fs::path(dir_) / (kSnapshotPrefix +
                                              std::to_string(seq));
  std::error_code ec;
  fs::create_directories(snap_dir, ec);
  if (ec) {
    throw CheckpointError("cannot create " + snap_dir.string() + ": " +
                          ec.message());
  }

  // Serialize everything first so the manifest can seal intended bytes.
  std::vector<std::pair<std::string, std::string>> files;
  files.emplace_back(kStateFile, build_state_image(controller, progress));
  if (migration != nullptr) {
    files.emplace_back(kMigrationFile, *migration);
  }

  std::vector<std::pair<std::string, const std::string*>> manifest_input;
  manifest_input.reserve(files.size());
  for (const auto& [name, bytes] : files) {
    manifest_input.emplace_back(name, &bytes);
  }
  const std::string manifest = build_manifest(manifest_input);

  // Data files first, manifest last: the manifest's existence is the
  // snapshot's commit record.
  for (auto& [name, bytes] : files) {
    write_file((snap_dir / name).string(), std::move(bytes));
  }
  write_file((snap_dir / kManifestFile).string(), manifest);
  ++snapshots_written_;

  // Prune committed snapshots beyond the keep budget (never the one
  // just written).
  const auto seqs = list_snapshot_seqs(dir_);
  if (seqs.size() > keep_snapshots_) {
    for (std::size_t i = 0; i + keep_snapshots_ < seqs.size(); ++i) {
      fs::remove_all(fs::path(dir_) /
                         (kSnapshotPrefix + std::to_string(seqs[i])),
                     ec);
    }
  }
}

// ---- RecoveryManager ---------------------------------------------------

RecoveryManager::RecoveryManager(std::string dir) : dir_(std::move(dir)) {
  BOHR_EXPECTS(!dir_.empty());
}

RecoveryResult RecoveryManager::recover(Controller& controller) {
  ScopedPhase phase("checkpoint.recover");
  RecoveryResult result;

  std::vector<std::size_t> seqs = list_snapshot_seqs(dir_);
  std::sort(seqs.rbegin(), seqs.rend());  // newest first

  for (const std::size_t seq : seqs) {
    const fs::path snap_dir =
        fs::path(dir_) / (kSnapshotPrefix + std::to_string(seq));
    try {
      const std::string manifest_text =
          read_file<SnapshotRejected>((snap_dir / kManifestFile).string());
      const std::vector<ManifestEntry> entries =
          parse_manifest(manifest_text);

      // Verify every file's size and checksum before trusting any byte.
      // Files other than the state and migration images (the per-site
      // cube files older snapshots carry) are checked but never decoded.
      std::string state_image;
      std::optional<std::string> migration_image;
      for (const ManifestEntry& entry : entries) {
        std::string bytes =
            read_file<SnapshotRejected>((snap_dir / entry.name).string());
        if (bytes.size() != entry.size) {
          throw SnapshotRejected(entry.name + " size mismatch");
        }
        if (crc32(bytes) != entry.crc) {
          throw SnapshotRejected(entry.name + " checksum mismatch");
        }
        if (entry.name == kStateFile) {
          state_image = std::move(bytes);
        } else if (entry.name == kMigrationFile) {
          migration_image = std::move(bytes);
        }
      }
      if (state_image.empty()) {
        throw SnapshotRejected("manifest lists no state image");
      }

      DecodedState state = decode_state_image(state_image);

      // Shape checks against the live controller: a snapshot from a
      // different configuration is corruption as far as recovery is
      // concerned. So is a row that does not fit its dataset's schema:
      // the cube rebuild and every query read its values by position.
      const auto& datasets = controller.datasets();
      if (state.dataset_rows.size() != datasets.size()) {
        throw SnapshotRejected("dataset count mismatch");
      }
      for (std::size_t a = 0; a < datasets.size(); ++a) {
        if (state.dataset_rows[a].size() != datasets[a].site_count()) {
          throw SnapshotRejected("site count mismatch");
        }
        if (state.dataset_has_cubes[a] != datasets[a].has_cubes()) {
          throw SnapshotRejected("cube presence mismatch");
        }
        const std::size_t arity =
            datasets[a].bundle().cube_spec.schema.attribute_count();
        for (const auto& rows : state.dataset_rows[a]) {
          for (const olap::Row& row : rows) {
            if (row.size() != arity) {
              throw SnapshotRejected("row arity does not match its schema");
            }
          }
        }
      }

      // All checks passed — restore. Mutations start only now, so a
      // rejected snapshot leaves the controller untouched. Every cube is
      // rebuilt from the restored rows.
      for (std::size_t a = 0; a < datasets.size(); ++a) {
        controller.mutable_dataset(a).restore_sites(
            std::move(state.dataset_rows[a]));
      }
      controller.restore_similarity(std::move(state.similarity));
      controller.restore_rng(state.rng);

      result.recovered = true;
      result.snapshot_seq = seq;
      result.progress = std::move(state.progress);
      result.migration_image = std::move(migration_image);
      return result;
    } catch (const SnapshotRejected&) {
      ++result.snapshots_rejected;
      continue;
    }
  }
  return result;
}

// ---- staged drivers ----------------------------------------------------

namespace {

void run_remaining_steps(Controller& controller, PrepareProgress& progress,
                         CheckpointManager& checkpoints) {
  const std::string& crash_phase =
      controller.options().faults.crash_after_phase;
  const std::vector<std::string>& names = prepare_phase_names();
  if (!crash_phase.empty()) {
    BOHR_EXPECTS(std::find(names.begin(), names.end(), crash_phase) !=
                 names.end());
  }
  while (progress.completed_steps < Controller::kPrepareStepCount) {
    controller.run_next_step(progress);
    checkpoints.snapshot(controller, progress);
    // The crash fires after the snapshot commits: "crash after phase X"
    // tests recovery FROM X's snapshot. (A crash mid-snapshot is the
    // torn-write fault's job.)
    if (!crash_phase.empty() &&
        names[progress.completed_steps - 1] == crash_phase) {
      throw CrashInjected(crash_phase);
    }
  }
}

}  // namespace

const PrepareReport& checkpointed_prepare(Controller& controller,
                                          CheckpointManager& checkpoints) {
  PrepareProgress progress = controller.start_prepare();
  run_remaining_steps(controller, progress, checkpoints);
  return controller.finish_prepare(std::move(progress));
}

const PrepareReport& resume_prepare(Controller& controller,
                                    PrepareProgress progress,
                                    CheckpointManager& checkpoints) {
  run_remaining_steps(controller, progress, checkpoints);
  return controller.finish_prepare(std::move(progress));
}

}  // namespace bohr::core
