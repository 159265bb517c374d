#include "engine/machine.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace bohr::engine {
namespace {

std::vector<RecordStream> make_parts(
    std::initializer_list<std::initializer_list<std::uint64_t>> keysets) {
  std::vector<RecordStream> parts;
  for (const auto& ks : keysets) parts.emplace_back(ks);
  return parts;
}

MachineConfig small_machine() {
  MachineConfig cfg;
  cfg.executors = 2;
  cfg.map_records_per_sec = 100.0;
  cfg.merge_records_per_sec = 1000.0;
  return cfg;
}

TEST(MachineTest, EmptyPartitionsZeroResult) {
  Rng rng(1);
  const auto result =
      run_local_stage({}, small_machine(), ExecutorAssignment::RoundRobin,
                      1.0, {}, rng);
  EXPECT_DOUBLE_EQ(result.stage_seconds, 0.0);
  EXPECT_EQ(result.shuffle_records, 0u);
}

TEST(MachineTest, ShuffleInputIsPerPartitionCombined) {
  // Two partitions sharing key 1: per-partition (per map task) combine
  // keeps one record per partition — Spark does NOT combine across tasks.
  const auto parts = make_parts({{1, 1, 2}, {1, 3}});
  Rng rng(1);
  const auto result =
      run_local_stage(parts, small_machine(), ExecutorAssignment::RoundRobin,
                      1.0, {}, rng);
  // Partition 1 combines to {1,2}; partition 2 to {1,3} -> 4 records.
  EXPECT_EQ(result.shuffle_records, 4u);
}

TEST(MachineTest, MapTimeScalesWithComputeMultiplier) {
  const auto parts = make_parts({{1, 2, 3, 4}});
  Rng rng(1);
  const auto cheap =
      run_local_stage(parts, small_machine(), ExecutorAssignment::RoundRobin,
                      1.0, {}, rng);
  const auto pricey =
      run_local_stage(parts, small_machine(), ExecutorAssignment::RoundRobin,
                      6.0, {}, rng);
  EXPECT_GT(pricey.stage_seconds, cheap.stage_seconds);
}

TEST(MachineTest, AssignmentCoversAllPartitions) {
  const auto parts = make_parts({{1}, {2}, {3}, {4}, {5}});
  Rng rng(7);
  const auto result =
      run_local_stage(parts, small_machine(), ExecutorAssignment::RoundRobin,
                      1.0, {}, rng);
  ASSERT_EQ(result.executor_of_partition.size(), parts.size());
  for (const auto e : result.executor_of_partition) EXPECT_LT(e, 2u);
}

TEST(MachineTest, SimilarityAssignmentClustersIdenticalPartitions) {
  // Partitions A,B identical; C,D identical; A/B disjoint from C/D.
  const auto parts =
      make_parts({{1, 2, 3}, {1, 2, 3}, {10, 11, 12}, {10, 11, 12}});
  similarity::DimsumParams dimsum;
  dimsum.gamma = 1e9;
  dimsum.num_hashes = 64;
  Rng rng(3);
  const auto result =
      run_local_stage(parts, small_machine(),
                      ExecutorAssignment::SimilarityKMeans, 1.0, dimsum, rng);
  EXPECT_EQ(result.executor_of_partition[0], result.executor_of_partition[1]);
  EXPECT_EQ(result.executor_of_partition[2], result.executor_of_partition[3]);
  EXPECT_NE(result.executor_of_partition[0], result.executor_of_partition[2]);
  // With perfect clustering no keys span executors.
  EXPECT_EQ(result.exchanged_records, 0u);
  EXPECT_GT(result.rdd_check_seconds, 0.0);
}

TEST(MachineTest, SimilarityAssignmentReducesExchange) {
  // 4 partitions in two identical pairs; round-robin risks splitting
  // pairs across executors, k-means never does.
  const auto parts =
      make_parts({{1, 2, 3}, {1, 2, 3}, {10, 11, 12}, {10, 11, 12}});
  similarity::DimsumParams dimsum;
  dimsum.gamma = 1e9;
  Rng rng_a(5);
  const auto clustered =
      run_local_stage(parts, small_machine(),
                      ExecutorAssignment::SimilarityKMeans, 1.0, dimsum, rng_a);
  // Find a round-robin seed that splits a pair (seed 5 shuffles; try a few).
  std::size_t worst_exchange = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng_b(seed);
    const auto rr = run_local_stage(parts, small_machine(),
                                    ExecutorAssignment::RoundRobin, 1.0,
                                    dimsum, rng_b);
    worst_exchange = std::max(worst_exchange, rr.exchanged_records);
  }
  EXPECT_EQ(clustered.exchanged_records, 0u);
  EXPECT_GT(worst_exchange, 0u);
}

TEST(MachineTest, RddCheckCostGrowsWithExecutors) {
  std::vector<RecordStream> parts;
  Rng gen(11);
  for (int p = 0; p < 16; ++p) {
    RecordStream s;
    for (int r = 0; r < 50; ++r) s.push_back(gen.below(100));
    parts.push_back(std::move(s));
  }
  similarity::DimsumParams dimsum;
  double last = 0.0;
  for (const std::size_t execs : {2u, 4u, 8u}) {
    MachineConfig cfg = small_machine();
    cfg.executors = execs;
    Rng rng(2);
    const auto res =
        run_local_stage(parts, cfg, ExecutorAssignment::SimilarityKMeans,
                        1.0, dimsum, rng);
    EXPECT_GE(res.rdd_check_seconds, last);
    last = res.rdd_check_seconds;
  }
}

TEST(MachineTest, MoreExecutorsFasterMapStage) {
  std::vector<RecordStream> parts;
  for (int p = 0; p < 8; ++p) {
    RecordStream s;
    for (std::uint64_t r = 0; r < 100; ++r) {
      s.push_back(static_cast<std::uint64_t>(p) * 1000 + r);
    }
    parts.push_back(std::move(s));
  }
  MachineConfig one = small_machine();
  one.executors = 1;
  MachineConfig four = small_machine();
  four.executors = 4;
  Rng rng_a(1);
  Rng rng_b(1);
  const auto slow =
      run_local_stage(parts, one, ExecutorAssignment::RoundRobin, 1.0, {},
                      rng_a);
  const auto fast =
      run_local_stage(parts, four, ExecutorAssignment::RoundRobin, 1.0, {},
                      rng_b);
  EXPECT_LT(fast.stage_seconds, slow.stage_seconds);
}

TEST(MachineTest, InvalidConfigThrows) {
  MachineConfig bad = small_machine();
  bad.executors = 0;
  Rng rng(1);
  EXPECT_THROW(run_local_stage(make_parts({{1}}), bad,
                               ExecutorAssignment::RoundRobin, 1.0, {}, rng),
               bohr::ContractViolation);
}

/// validate() must throw and name the offending field in the message.
void expect_rejects(const MachineConfig& bad, const std::string& field) {
  try {
    bad.validate();
    FAIL() << "expected ContractViolation naming " << field;
  } catch (const bohr::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name " << field << ": " << e.what();
  }
}

TEST(MachineTest, ValidateRejectsOutOfRangeStragglerProbability) {
  MachineConfig bad = small_machine();
  bad.straggler_probability = 1.5;
  expect_rejects(bad, "straggler_probability");
  bad.straggler_probability = -0.1;
  expect_rejects(bad, "straggler_probability");
  // The boundaries themselves are legal.
  bad.straggler_probability = 0.0;
  EXPECT_NO_THROW(bad.validate());
  bad.straggler_probability = 1.0;
  EXPECT_NO_THROW(bad.validate());
}

TEST(MachineTest, ValidateRejectsSubUnitSpeculationCap) {
  MachineConfig bad = small_machine();
  bad.speculation_cap = 0.5;
  expect_rejects(bad, "speculation_cap");
  bad.speculation_cap = 1.0;  // capping at the median itself is legal
  EXPECT_NO_THROW(bad.validate());
}

TEST(MachineTest, ValidateRejectsNonPositiveRates) {
  MachineConfig bad = small_machine();
  bad.map_records_per_sec = 0.0;
  EXPECT_THROW(bad.validate(), bohr::ContractViolation);
  bad = small_machine();
  bad.straggler_slowdown = 0.5;
  EXPECT_THROW(bad.validate(), bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
