#include "engine/combiner.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "engine/partitioner.h"

namespace bohr::engine {
namespace {

TEST(CombinerTest, SumMergesByKey) {
  const RecordStream in{{1, 2.0}, {2, 1.0}, {1, 3.0}};
  const RecordStream out = combine(in, AggregateOp::Sum);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 5.0);
  EXPECT_EQ(out[1].key, 2u);
  EXPECT_DOUBLE_EQ(out[1].value, 1.0);
}

TEST(CombinerTest, CountIgnoresValues) {
  const RecordStream in{{7, 99.0}, {7, -1.0}, {8, 0.0}};
  const RecordStream out = combine(in, AggregateOp::Count);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_DOUBLE_EQ(out[1].value, 1.0);
}

TEST(CombinerTest, MaxAndMin) {
  const RecordStream in{{1, 5.0}, {1, 9.0}, {1, 2.0}};
  EXPECT_DOUBLE_EQ(combine(in, AggregateOp::Max)[0].value, 9.0);
  EXPECT_DOUBLE_EQ(combine(in, AggregateOp::Min)[0].value, 2.0);
}

TEST(CombinerTest, EmptyInput) {
  EXPECT_TRUE(combine({}, AggregateOp::Sum).empty());
}

TEST(CombinerTest, OutputSortedByKey) {
  const RecordStream in{{9, 1}, {3, 1}, {7, 1}, {3, 1}};
  const RecordStream out = combine(in, AggregateOp::Sum);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST(PartitionerTest, RespectsPartitionSize) {
  RecordStream records;
  for (std::uint64_t i = 0; i < 10; ++i) records.push_back({i, 1.0});
  const auto parts =
      make_partitions(records, 4, PartitionPolicy::ArrivalOrder);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[2].size(), 2u);
}

TEST(PartitionerTest, EmptyInputNoPartitions) {
  EXPECT_TRUE(make_partitions({}, 4, PartitionPolicy::CubeSorted).empty());
}

TEST(PartitionerTest, ArrivalOrderPreservesSequence) {
  const RecordStream records{{5, 0}, {1, 0}, {9, 0}};
  const auto parts =
      make_partitions(records, 10, PartitionPolicy::ArrivalOrder);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0][0].key, 5u);
  EXPECT_EQ(parts[0][2].key, 9u);
}

TEST(PartitionerTest, CubeSortedClustersKeys) {
  // Interleaved duplicate keys: cube-sorting puts duplicates into the
  // same partition so the per-partition combiner can merge them.
  RecordStream records;
  for (std::uint64_t i = 0; i < 8; ++i) {
    records.push_back({i % 2, 1.0});  // keys 0,1,0,1,...
  }
  const auto sorted = make_partitions(records, 4, PartitionPolicy::CubeSorted);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(combine(sorted[0], AggregateOp::Count).size(), 1u);
  EXPECT_EQ(combine(sorted[1], AggregateOp::Count).size(), 1u);
  const auto arrival =
      make_partitions(records, 4, PartitionPolicy::ArrivalOrder);
  EXPECT_EQ(combine(arrival[0], AggregateOp::Count).size(), 2u);
}

TEST(PartitionerTest, ZeroPartitionSizeThrows) {
  EXPECT_THROW(make_partitions({}, 0, PartitionPolicy::CubeSorted),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
