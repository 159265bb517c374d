// Seeded mutation fuzzing of every binary decoder (common/bytes.h).
//
// Each valid image is truncated, has single bits flipped at seeded
// positions, and has its 4- and 8-byte fields overwritten with boundary
// values (0, 2^31, 2^32 - 1, 2^61, 2^63, 2^64 - 1). The enclosing CRC or
// manifest is resealed after each edit, so the decoder sees the edit
// rather than the checksum. The invariant: a mutant either decodes to a
// value whose encoding decodes again to the same value, or it is
// rejected with the format's own error type — for the formats read by
// checkpoint recovery, that means the snapshot counts as rejected. Any
// other exception fails the test. CI adds "no UB" (the ASan/UBSan job)
// and "no unbounded allocation" (the Release job reruns these cases
// under an address-space cap). The seed is fixed, so every run sees the same
// mutants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/latency.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "net/site_health.h"
#include "olap/cube_io.h"
#include "snapshot_files.h"
#include "../olap/cube_image.h"
#include "../temp_dir.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;
using snapshot_files::seal_manifest;
using snapshot_files::Snapshot;
using snapshot_files::write_bytes;
using temp_dir::fresh_dir;

constexpr std::uint64_t kSeed = 0xB0B5EED;
constexpr std::size_t kBitFlips = 256;
constexpr std::uint32_t kU32Values[] = {0, 1u << 31, 0xFFFFFFFFu};
constexpr std::uint64_t kU64Values[] = {0,
                                         std::uint64_t{1} << 31,
                                         0xFFFFFFFFu,
                                         std::uint64_t{1} << 61,
                                         std::uint64_t{1} << 63,
                                         ~std::uint64_t{0}};

/// Where to mutate one valid image.
struct MutationPlan {
  /// Truncation points; every byte when empty.
  std::vector<std::size_t> cuts;
  /// Field offsets overwritten with each boundary value, as a u32 and as
  /// a u64; every 4-byte-aligned offset when empty.
  std::vector<std::size_t> fields;
  std::size_t flips = kBitFlips;
  /// Reseals the checksum covering byte `at` after an edit there.
  std::function<void(std::string&, std::size_t at)> reseal =
      [](std::string&, std::size_t) {};
};

using MutantCheck =
    std::function<void(const std::string& label, const std::string& mutant)>;

void for_each_mutant(const std::string& image, const MutationPlan& plan,
                     const MutantCheck& check) {
  std::vector<std::size_t> cuts = plan.cuts;
  if (cuts.empty()) {
    for (std::size_t cut = 0; cut < image.size(); ++cut) cuts.push_back(cut);
  }
  for (const std::size_t cut : cuts) {
    // Only a manifest can be resealed over a cut: it is text whose self
    // line can be rewritten over whatever is left.
    std::string mutant = image.substr(0, cut);
    if (cut > 0) plan.reseal(mutant, cut - 1);
    check("cut at " + std::to_string(cut), mutant);
  }

  Rng rng(kSeed);
  for (std::size_t i = 0; i < plan.flips; ++i) {
    const std::size_t bit = rng.below(image.size() * 8);
    std::string mutant = image;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    plan.reseal(mutant, bit / 8);
    check("bit " + std::to_string(bit) + " flipped", mutant);
  }

  std::vector<std::size_t> fields = plan.fields;
  if (fields.empty()) {
    for (std::size_t at = 0; at + 4 <= image.size(); at += 4) {
      fields.push_back(at);
    }
  }
  const auto overwrite = [&](std::size_t at, const auto value) {
    if (at + sizeof(value) > image.size()) return;
    std::string mutant = image;
    std::memcpy(mutant.data() + at, &value, sizeof(value));
    plan.reseal(mutant, at);
    check(std::to_string(sizeof(value) * 8) + "-bit field at " +
              std::to_string(at) + " = " + std::to_string(value),
          mutant);
  };
  for (const std::size_t at : fields) {
    for (const std::uint32_t v : kU32Values) overwrite(at, v);
    for (const std::uint64_t v : kU64Values) overwrite(at, v);
  }
}

/// What the decoder made of the mutants. Both counts must be non-zero:
/// all-rejected means the reseal missed, all-decoded means the mutator
/// never reached a checked field.
struct Outcome {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
};

void expect_both_outcomes(const Outcome& outcome) {
  EXPECT_GT(outcome.decoded, 0u);
  EXPECT_GT(outcome.rejected, 0u);
}

std::string describe(const std::exception& e) {
  return std::string(typeid(e).name()) + ": " + e.what();
}

/// Decodes every mutant of `image`. A mutant `decode` accepts must encode
/// to an image that decodes to the same value (compared by
/// `fingerprint`); every other mutant must throw `Error`.
template <typename Error, typename Decode, typename Encode,
          typename Fingerprint>
Outcome fuzz(const std::string& image, const MutationPlan& plan,
             Decode decode, Encode encode, Fingerprint fingerprint) {
  Outcome outcome;
  for_each_mutant(image, plan, [&](const std::string& label,
                                   const std::string& mutant) {
    std::optional<decltype(decode(mutant))> value;
    try {
      value.emplace(decode(mutant));
    } catch (const Error&) {
      ++outcome.rejected;
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": threw " << describe(e);
      return;
    }
    ++outcome.decoded;
    try {
      EXPECT_EQ(fingerprint(decode(encode(*value))), fingerprint(*value))
          << label;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": re-encoded image threw " << describe(e);
    }
  });
  return outcome;
}

template <typename Error, typename Decode, typename Encode>
Outcome fuzz(const std::string& image, const MutationPlan& plan,
             Decode decode, Encode encode) {
  return fuzz<Error>(image, plan, decode, encode, encode);
}

// ---- formats decoded directly -------------------------------------------

olap::OlapCube fuzz_cube() {
  const olap::Dimension date("date", {{"day", 1}, {"month", 30}}, false);
  const olap::Dimension bucket("bucket", {{"base", 1}, {"b16", 16}}, true);
  olap::OlapCube cube({date, bucket, olap::Dimension("plain")});
  Rng rng(kSeed);
  for (int i = 0; i < 12; ++i) {
    cube.insert({rng.below(60), rng.below(256), rng.below(40)},
                rng.uniform(-5.0, 5.0));
  }
  return cube;
}

/// Order-independent identity of a cube: dimensions, then its cells
/// sorted, doubles by bit pattern (a flipped bit may make one NaN).
std::string cube_fingerprint(const olap::OlapCube& cube) {
  std::string out;
  for (const olap::Dimension& d : cube.dimensions()) {
    out += d.name() + (d.is_hashed() ? "#" : "") + ":";
    for (std::size_t l = 0; l < d.level_count(); ++l) {
      out += d.level(l).name + "/" + std::to_string(d.level(l).granularity) +
             ",";
    }
  }
  std::vector<std::string> cells;
  for (const auto& [coords, agg] : cube.cells()) {
    std::string cell;
    for (const olap::MemberId m : coords) cell += std::to_string(m) + ",";
    for (const double x : {agg.sum, agg.min, agg.max}) {
      cell += std::to_string(std::bit_cast<std::uint64_t>(x)) + ",";
    }
    cells.push_back(cell + std::to_string(agg.count));
  }
  std::sort(cells.begin(), cells.end());
  for (const std::string& cell : cells) out += "|" + cell;
  return out + "|" + std::to_string(cube.total_records());
}

TEST(CodecFuzzTest, CubeV2) {
  const std::string image = olap::encode_cube(fuzz_cube());
  const olap::cube_image::Frames frames = olap::cube_image::frames(image);
  MutationPlan plan;
  plan.reseal = [frames, size = image.size()](std::string& mutant,
                                              std::size_t at) {
    if (mutant.size() != size) return;  // cut short: the CRCs are gone
    // A payload edit reseals its section (the CRC is the 4 bytes before
    // the next frame); a body_bytes edit reseals the footer.
    if (at >= frames.dims + 8 && at < frames.cells - 4) {
      olap::cube_image::reseal_section(mutant, frames.dims);
    }
    if (at >= frames.cells + 8 && at < frames.footer - 4) {
      olap::cube_image::reseal_section(mutant, frames.cells);
    }
    if (at >= frames.footer && at < frames.footer + 8) {
      const std::uint32_t crc = crc32(mutant.data() + frames.footer, 8);
      std::memcpy(mutant.data() + frames.footer + 8, &crc, sizeof(crc));
    }
  };
  // Every offset, not every fourth: the CELLS payload need not start on
  // a 4-byte boundary.
  for (std::size_t at = 0; at < image.size(); ++at) plan.fields.push_back(at);
  expect_both_outcomes(fuzz<olap::CubeIoError>(
      image, plan, [](const std::string& b) { return olap::decode_cube(b); },
      [](const olap::OlapCube& c) { return olap::encode_cube(c); },
      cube_fingerprint));
}

TEST(CodecFuzzTest, CubeV1) {
  const std::string image = olap::encode_cube_v1(fuzz_cube());
  MutationPlan plan;
  for (std::size_t at = 0; at < image.size(); ++at) plan.fields.push_back(at);
  expect_both_outcomes(fuzz<olap::CubeIoError>(
      image, plan, [](const std::string& b) { return olap::decode_cube(b); },
      [](const olap::OlapCube& c) { return olap::encode_cube_v1(c); },
      cube_fingerprint));
}

net::WanTopology fuzz_topology() {
  std::vector<net::Site> sites;
  for (int i = 0; i < 4; ++i) {
    sites.push_back(net::Site{"S" + std::to_string(i), 100.0, 100.0});
  }
  return net::WanTopology(sites);
}

net::FaultPlan flapping_plan() {
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{0, 0.0, 5.0});
  plan.outages.push_back(net::OutageWindow{0, 10.0, 15.0});
  plan.slowdowns.push_back(net::SiteSlowdown{1, 0.0, 1000.0, 5.0});
  return plan;
}

net::HealthOptions flap_options() {
  net::HealthOptions options;
  options.dead_after_misses = 2;
  options.flap_window_seconds = 100.0;
  return options;
}

TEST(CodecFuzzTest, MigrationImage) {
  const net::WanTopology topology = fuzz_topology();
  MigrationOptions options;
  options.buckets = 8;
  options.health = flap_options();
  const auto make = [&] {
    return MigrationController(topology, {0.4, 0.3, 0.2, 0.1}, options);
  };
  MigrationController source = make();
  for (const double now : {0.0, 1.0, 6.0, 10.0}) {
    source.step(flapping_plan(), now);
  }
  const auto decode = [&](const std::string& image) {
    MigrationController restored = make();
    restored.restore(image);
    return restored;
  };
  expect_both_outcomes(fuzz<ContractViolation>(
      source.serialize(), MutationPlan{}, decode,
      [](const MigrationController& c) { return c.serialize(); }));
}

TEST(CodecFuzzTest, HealthImage) {
  net::SiteHealthMonitor source(3, flap_options());
  for (const double now : {0.0, 1.0, 6.0, 10.0, 11.0, 16.0}) {
    source.observe(flapping_plan(), now);
  }
  const auto decode = [](const std::string& image) {
    net::SiteHealthMonitor restored(3, flap_options());
    restored.restore(image);
    return restored;
  };
  expect_both_outcomes(fuzz<ContractViolation>(
      source.serialize(), MutationPlan{}, decode,
      [](const net::SiteHealthMonitor& m) { return m.serialize(); }));
}

TEST(CodecFuzzTest, DegradedReport) {
  DegradedReport source;
  for (std::uint32_t i = 0; i < 3; ++i) {
    DegradedAnswer a;
    a.round = i;
    a.dataset = i;
    a.mode = static_cast<AnswerMode>(i);
    a.value = 10.5 * i;
    a.exact_value = 10.0 * i;
    a.error_estimate = 0.25;
    a.coverage = 0.75;
    a.sites_usable = 4;
    a.qct_seconds = 30.0 + i;
    source.add(a);
  }
  expect_both_outcomes(fuzz<ContractViolation>(
      source.serialize(), MutationPlan{},
      [](const std::string& b) { return DegradedReport::deserialize(b); },
      [](const DegradedReport& r) { return r.serialize(); }));
}

TEST(CodecFuzzTest, LatencyRecorder) {
  LatencyRecorder source;
  for (const double q : {0.125, 3.5, 1e-9, 42.0, 7.25, 0.0}) source.add(q);
  expect_both_outcomes(fuzz<ContractViolation>(
      source.serialize(), MutationPlan{},
      [](const std::string& b) { return LatencyRecorder::deserialize(b); },
      [](const LatencyRecorder& r) { return r.serialize(); }));
}

// ---- formats decoded by checkpoint recovery -----------------------------

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 1;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 6;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 5;
  return cfg;
}

/// Prepares a checkpointed controller through `steps` prepare steps and
/// returns its snapshot.
Snapshot prepared_snapshot(const ExperimentConfig& cfg, std::size_t steps) {
  const std::string dir = fresh_dir("fuzz-source");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 1);
  PrepareProgress progress = controller.start_prepare();
  controller.step_similarity(progress);
  if (steps > 1) controller.step_placement(progress);
  if (steps > 2) controller.step_plan_movement(progress);
  checkpoints.snapshot(controller, progress);
  return Snapshot::load(fs::path(dir) / "snapshot-1");
}

/// Recovers each mutant of snapshot file `file`. recover() must never
/// throw: a mutant is restored, or it counts as one rejected snapshot. A
/// restored one must snapshot again into an image that recovers to the
/// same progress.
Outcome recover_mutants(const ExperimentConfig& cfg, const Snapshot& valid,
                        const std::string& file, const MutationPlan& plan) {
  Controller controller = make_controller(cfg, Strategy::Bohr);
  const std::string dir = fresh_dir("fuzz-recover");
  valid.write(dir, valid.manifest());
  const fs::path snapshot = fs::path(dir) / "snapshot-1";
  CheckpointManager again(fresh_dir("fuzz-recover-again"), 1);
  Snapshot edited = valid;
  const bool manifest = file == "MANIFEST";
  Outcome outcome;
  for_each_mutant(manifest ? valid.manifest() : valid.files.at(file), plan,
                  [&](const std::string& label, const std::string& mutant) {
    if (manifest) {
      write_bytes(snapshot / file, mutant);
    } else {
      edited.files.at(file) = mutant;
      write_bytes(snapshot / file, mutant);
      write_bytes(snapshot / "MANIFEST", edited.manifest());
    }
    RecoveryResult found;
    try {
      found = RecoveryManager(dir).recover(controller);
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": recover() threw " << describe(e);
      return;
    }
    if (!found.recovered) {
      EXPECT_EQ(found.snapshots_rejected, 1u) << label;
      ++outcome.rejected;
      return;
    }
    ++outcome.decoded;
    try {
      again.snapshot(controller, found.progress);
      const RecoveryResult back =
          RecoveryManager(again.dir()).recover(controller);
      EXPECT_TRUE(back.recovered) << label;
      EXPECT_EQ(back.progress.completed_steps, found.progress.completed_steps)
          << label;
      EXPECT_EQ(serialize_prepare_report(back.progress.report),
                serialize_prepare_report(found.progress.report))
          << label;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": re-snapshot threw " << describe(e);
    }
  });
  return outcome;
}

/// Section starts and count fields of a state image, walked the way
/// checkpoint.cpp lays it out. Counts are the fields that size what
/// follows, so they are the ones the boundary values are aimed at.
struct StateLayout {
  std::vector<std::size_t> sections;
  std::vector<std::size_t> counts;
};

StateLayout state_layout(const std::string& image) {
  StateLayout out;
  std::size_t at = 0;
  const auto count = [&](std::size_t width) {
    out.counts.push_back(at);
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + at, width);
    at += width;
    return v;
  };
  const auto section = [&] { out.sections.push_back(at); };
  const auto doubles = [&] { at += 8 * count(4); };

  section();
  at += 8;   // magic
  count(4);  // version
  count(4);  // completed steps
  section();
  at += 4 * 8 + 8 + 1;  // RNG words, spare, has-spare
  section();
  at += 1;              // reserved, always 0
  section();            // the prepare report
  at += 8 + 8;          // similarity seconds, probe bytes
  for (auto a = count(4); a > 0; --a) {
    for (auto i = count(4); i > 0; --i) doubles();  // move bytes
  }
  doubles();  // reduce fractions
  at += 3 * 8 + 1 + 3 * 8 + 1 + 11 * 8;  // LP, movement, fault counters
  section();                             // movement plans
  for (auto p = count(4); p > 0; --p) {
    for (auto f = count(4); f > 0; --f) {
      at += 4 + 4 + 8;      // src, dst, bytes
      at += 8 * count(8);   // row indices
    }
    at += 8 + 8;  // planned bytes, planned rows
  }
  section();  // similarity results
  for (auto d = count(4); d > 0; --d) {
    doubles();  // self
    for (auto i = count(4); i > 0; --i) doubles();  // pair
    for (auto i = count(4); i > 0; --i) {
      for (auto j = count(4); j > 0; --j) at += 8 * count(8);  // key sets
    }
    at += 8 + 8 + 8;
  }
  section();  // per-site rows
  for (auto d = count(4); d > 0; --d) {
    auto sites = count(4);
    at += 1;  // has cubes
    for (; sites > 0; --sites) {
      section();
      for (auto r = count(8); r > 0; --r) {
        for (auto v = count(4); v > 0; --v) {
          const char tag = image[at++];
          at += tag == 2 ? count(4) : 8;
        }
      }
    }
  }
  EXPECT_EQ(at, image.size());
  section();
  return out;
}

TEST(CodecFuzzTest, StateImageThroughRecovery) {
  const ExperimentConfig cfg = tiny_config();
  const Snapshot valid = prepared_snapshot(cfg, 3);
  const StateLayout layout = state_layout(valid.files.at("state.bin"));
  MutationPlan plan;
  plan.cuts = layout.sections;
  plan.cuts.insert(plan.cuts.end(), layout.counts.begin(),
                   layout.counts.end());
  plan.fields = layout.counts;
  expect_both_outcomes(recover_mutants(cfg, valid, "state.bin", plan));
}

TEST(CodecFuzzTest, ManifestThroughRecovery) {
  const ExperimentConfig cfg = tiny_config();
  const Snapshot valid = prepared_snapshot(cfg, 1);
  MutationPlan plan;
  // Edits before the self line reseal it; edits to it must fail its
  // own check.
  plan.reseal = [](std::string& manifest, std::size_t at) {
    const std::size_t self = manifest.rfind("self ");
    if (self != std::string::npos && at < self) {
      manifest = seal_manifest(manifest.substr(0, self));
    }
  };
  expect_both_outcomes(recover_mutants(cfg, valid, "MANIFEST", plan));
}

/// Offsets where the churn image's own fields start, and its end: its
/// section boundaries, and the fields the mutator overwrites. The images
/// it embeds are fuzzed directly above.
std::vector<std::size_t> churn_fields(const std::string& image) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + at, sizeof(v));
    return v;
  };
  std::vector<std::size_t> fields = {0};  // magic
  std::size_t at = 4;
  const auto field = [&] {
    fields.push_back(at);
    at += 8;
    return u64_at(at - 8);
  };
  const auto sub_image = [&] { at += field(); };
  // Version, rounds run, queries run, QCT sum, speculations, max reduce
  // slowdown, then the per-round QCTs.
  for (int i = 0; i < 6; ++i) field();
  for (std::uint64_t rounds = field(); rounds > 0; --rounds) field();
  sub_image();                // the latency recorder
  if (field() != 0) sub_image();  // the migration controller
  if (field() != 0) {             // degradation
    sub_image();                  // the degraded report
    if (field() != 0) sub_image();  // the standalone health monitor
  }
  EXPECT_EQ(at, image.size());
  fields.push_back(at);
  return fields;
}

TEST(CodecFuzzTest, ChurnImageThroughRecovery) {
  const ExperimentConfig cfg = tiny_config();
  const std::string dir = fresh_dir("fuzz-churn");
  ChurnOptions churn;
  churn.rounds = 2;
  churn.degrade = true;
  churn.checkpoint_dir = dir;
  churn.crash_after_round = 1;
  ASSERT_TRUE(run_churn_experiment(cfg, churn).crashed);
  const Snapshot valid = Snapshot::load(fs::path(dir) / "snapshot-1");
  const std::string image = valid.files.at("migration.bin");

  MutationPlan plan;
  plan.fields = churn_fields(image);
  plan.cuts = plan.fields;
  plan.flips = 32;
  churn.crash_after_round = 0;
  churn.recover = true;
  Outcome outcome;
  for_each_mutant(image, plan, [&](const std::string& label,
                                   const std::string& mutant) {
    Snapshot snap = valid;
    snap.files.at("migration.bin") = mutant;
    snap.write(dir, snap.manifest());
    try {
      run_churn_experiment(cfg, churn);
    } catch (const ContractViolation&) {
      ++outcome.rejected;
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": threw " << describe(e);
      return;
    }
    ++outcome.decoded;
    // A run that went on to snapshot its next round re-encoded the
    // image; that snapshot must recover too.
    if (fs::exists(fs::path(dir) / "snapshot-2")) {
      try {
        EXPECT_TRUE(run_churn_experiment(cfg, churn).recovered) << label;
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": re-encoded image threw " << describe(e);
      }
    }
  });
  expect_both_outcomes(outcome);
}

}  // namespace
}  // namespace bohr::core
