#include <gtest/gtest.h>

#include "engine/machine.h"

namespace bohr::engine {
namespace {

std::vector<RecordStream> big_parts(std::size_t n_parts,
                                    std::size_t records) {
  std::vector<RecordStream> parts(n_parts);
  std::uint64_t key = 0;
  for (auto& p : parts) {
    for (std::size_t r = 0; r < records; ++r) p.push_back(key++);
  }
  return parts;
}

MachineConfig machine() {
  MachineConfig cfg;
  cfg.executors = 4;
  cfg.map_records_per_sec = 1000.0;
  cfg.merge_records_per_sec = 1e9;
  return cfg;
}

double stage_seconds(const MachineConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  return run_local_stage(big_parts(8, 100), cfg,
                         ExecutorAssignment::RoundRobin, 1.0, {}, rng)
      .stage_seconds;
}

TEST(StragglerTest, NoStragglersByDefault) {
  Rng rng(1);
  const auto result =
      run_local_stage(big_parts(8, 100), machine(),
                      ExecutorAssignment::RoundRobin, 1.0, {}, rng);
  EXPECT_EQ(result.stragglers, 0u);
  EXPECT_EQ(result.speculations, 0u);
}

TEST(StragglerTest, CertainStragglerSlowsStage) {
  MachineConfig clean = machine();
  MachineConfig slow = machine();
  slow.straggler_probability = 1.0;
  slow.straggler_slowdown = 5.0;
  const double base = stage_seconds(clean, 7);
  const double straggled = stage_seconds(slow, 7);
  EXPECT_NEAR(straggled, base * 5.0, base * 0.01);
}

TEST(StragglerTest, SpeculationCapsTheDamage) {
  MachineConfig slow = machine();
  slow.straggler_probability = 0.5;
  slow.straggler_slowdown = 10.0;
  MachineConfig spec = slow;
  spec.speculative_execution = true;
  spec.speculation_cap = 1.5;

  // Average over seeds: speculation must never be slower and should be
  // clearly faster when stragglers hit.
  double slow_total = 0.0;
  double spec_total = 0.0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const double a = stage_seconds(slow, seed);
    const double b = stage_seconds(spec, seed);
    EXPECT_LE(b, a + 1e-12) << "seed " << seed;
    slow_total += a;
    spec_total += b;
  }
  EXPECT_LT(spec_total, slow_total * 0.6);
}

TEST(StragglerTest, CountsReported) {
  MachineConfig cfg = machine();
  cfg.straggler_probability = 1.0;
  cfg.straggler_slowdown = 10.0;
  cfg.speculative_execution = true;
  Rng rng(3);
  const auto result =
      run_local_stage(big_parts(8, 100), cfg,
                      ExecutorAssignment::RoundRobin, 1.0, {}, rng);
  EXPECT_EQ(result.stragglers, 4u);  // every executor straggled
  EXPECT_GT(result.speculations, 0u);
}

TEST(StragglerTest, ShuffleVolumeUnaffected) {
  MachineConfig clean = machine();
  MachineConfig slow = machine();
  slow.straggler_probability = 1.0;
  Rng rng_a(5);
  Rng rng_b(5);
  const auto a =
      run_local_stage(big_parts(4, 50), clean,
                      ExecutorAssignment::RoundRobin, 1.0, {}, rng_a);
  const auto b =
      run_local_stage(big_parts(4, 50), slow,
                      ExecutorAssignment::RoundRobin, 1.0, {}, rng_b);
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
}

TEST(StragglerTest, InvalidSlowdownThrows) {
  MachineConfig cfg = machine();
  cfg.straggler_probability = 0.5;
  cfg.straggler_slowdown = 0.5;  // < 1 makes no sense
  Rng rng(1);
  EXPECT_THROW(run_local_stage(big_parts(2, 10), cfg,
                               ExecutorAssignment::RoundRobin, 1.0, {}, rng),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
