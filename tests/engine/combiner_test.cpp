#include "engine/combiner.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "engine/partitioner.h"

namespace bohr::engine {
namespace {

TEST(CombinerTest, EmptyInput) {
  EXPECT_TRUE(combine({}).empty());
}

TEST(CombinerTest, OutputSortedByKey) {
  const RecordStream in{9, 3, 7, 3};
  EXPECT_EQ(combine(in), (RecordStream{3, 7, 9}));
}

TEST(PartitionerTest, RespectsPartitionSize) {
  RecordStream records;
  for (std::uint64_t i = 0; i < 10; ++i) records.push_back(i);
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
  const RecordStream records{5, 1, 9};
  const auto parts =
      make_partitions(records, 10, PartitionPolicy::ArrivalOrder);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0][0], 5u);
  EXPECT_EQ(parts[0][2], 9u);
}

TEST(PartitionerTest, CubeSortedClustersKeys) {
  // Interleaved duplicate keys: cube-sorting puts duplicates into the
  // same partition so the per-partition combiner can merge them.
  RecordStream records;
  for (std::uint64_t i = 0; i < 8; ++i) {
    records.push_back(i % 2);  // keys 0,1,0,1,...
  }
  const auto sorted = make_partitions(records, 4, PartitionPolicy::CubeSorted);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(combine(sorted[0]).size(), 1u);
  EXPECT_EQ(combine(sorted[1]).size(), 1u);
  const auto arrival =
      make_partitions(records, 4, PartitionPolicy::ArrivalOrder);
  EXPECT_EQ(combine(arrival[0]).size(), 2u);
}

TEST(PartitionerTest, ZeroPartitionSizeThrows) {
  EXPECT_THROW(make_partitions({}, 0, PartitionPolicy::CubeSorted),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
