#include "engine/combiner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "engine/partitioner.h"

namespace bohr::engine {
namespace {

TEST(CombinerTest, EmptyInput) {
  EXPECT_TRUE(combine({}).empty());
}

TEST(CombinerTest, OutputSortedByKey) {
  const RecordStream in{9, 3, 7, 3};
  EXPECT_EQ(combine(in), (RecordStream{3, 7, 9}));
  // Sorted input skips the sort and still loses its duplicates.
  EXPECT_EQ(combine(RecordStream{3, 3, 7, 9, 9}), (RecordStream{3, 7, 9}));
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

  // Inputs on both sides of the radix sort's cut-over to std::sort, and
  // the radix sort's edge cases: one repeated key (every digit skipped),
  // sorted and reversed runs, and keys that differ only in their top or
  // only in their bottom byte (one digit pass).
  std::vector<RecordStream> inputs;
  Rng rng(5);
  const auto random_keys = [&](std::size_t n) {
    RecordStream keys(n);
    for (auto& key : keys) key = rng();
    return keys;
  };
  for (const std::size_t n :
       {0u, 1u, 63u, 64u, 65u, 1023u, 1024u, 1025u, 5000u}) {
    inputs.push_back(random_keys(n));
  }
  inputs.push_back(RecordStream(5000, 0xDEADBEEFCAFEF00DULL));
  RecordStream ascending(5000);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = i * 977;
  inputs.push_back(ascending);
  inputs.emplace_back(ascending.rbegin(), ascending.rend());
  RecordStream top(5000);
  RecordStream bottom(5000);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const std::uint64_t byte = rng.below(256);
    top[i] = (byte << 56) | 0x00A1B2C3D4E5F607ULL;
    bottom[i] = 0x7766554433221100ULL | byte;
  }
  inputs.push_back(top);
  inputs.push_back(bottom);
  // Few distinct keys in long runs, as the engine's record streams are.
  RecordStream runs(5000);
  for (auto& key : runs) key = mix64(rng.below(40));
  inputs.push_back(runs);

  for (const RecordStream& input : inputs) {
    RecordStream want = input;
    std::sort(want.begin(), want.end());
    const auto parts = make_partitions(input, 64, PartitionPolicy::CubeSorted);
    ASSERT_EQ(parts.size(), (input.size() + 63) / 64) << input.size();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const auto first = want.begin() + static_cast<std::ptrdiff_t>(p * 64);
      const auto last = p + 1 < parts.size() ? first + 64 : want.end();
      EXPECT_EQ(parts[p], RecordStream(first, last))
          << input.size() << " keys, partition " << p;
    }
  }
}

TEST(PartitionerTest, ZeroPartitionSizeThrows) {
  EXPECT_THROW(make_partitions({}, 0, PartitionPolicy::CubeSorted),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
