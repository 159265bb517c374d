// Pins the bits of the §6 local stage on a bulk_move-shaped input: ten
// sites of about 2,400 Zipf-keyed records, each cut into partitions of
// 24 records by CubeSorted, so most partitions are short key ranges and
// the partitions inside a long run of one key, or on either side of a
// run's end, share keys.
//   - run_local_stage with SimilarityKMeans at 1, 4 and 7 executors:
//     a crc32 over every site's executor_of_partition, shuffle_records,
//     exchanged_records and the bits of stage_seconds and
//     rdd_check_seconds (no QCT digest reads the assignment or
//     exchanged_records, so only this pin sees them);
//   - dimsum_jaccard on the same partitions' distinct keys, exact mode
//     on and off, at gamma 0.5 and 4: a crc32 over the matrix bits,
//     pairs_examined and pairs_skipped.
// The constants were recorded on the code that scored every examined
// pair and sorted each key stream at every step; they are not edited.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "engine/combiner.h"
#include "engine/machine.h"
#include "engine/partitioner.h"
#include "similarity/dimsum.h"

namespace bohr::engine {
namespace {

constexpr std::size_t kSites = 10;
constexpr std::size_t kPartitionRecords = 24;

/// One site's map output: about 2,400 records over 700 Zipf-ranked keys,
/// each key a hash of its rank, as the engine's record keys are.
std::vector<RecordStream> site_partitions(std::size_t site) {
  static const ZipfSampler zipf(700, 1.1);
  Rng rng(1000 + site);
  RecordStream records(2300 + rng.below(200));
  for (auto& key : records) key = mix64(zipf.sample(rng) + 1);
  return make_partitions(records, kPartitionRecords,
                         PartitionPolicy::CubeSorted);
}

template <typename T>
void crc_value(Crc32& crc, const T& value) {
  crc.update(&value, sizeof value);
}

std::uint32_t local_stage_crc(std::size_t executors) {
  MachineConfig machine;
  machine.executors = executors;
  Crc32 crc;
  for (std::size_t s = 0; s < kSites; ++s) {
    Rng rng(s);
    const LocalStageResult local = run_local_stage(
        site_partitions(s), machine, ExecutorAssignment::SimilarityKMeans,
        1.0, similarity::DimsumParams{}, rng);
    for (const std::size_t e : local.executor_of_partition) {
      crc_value(crc, static_cast<std::uint64_t>(e));
    }
    crc_value(crc, static_cast<std::uint64_t>(local.shuffle_records));
    crc_value(crc, static_cast<std::uint64_t>(local.exchanged_records));
    crc_value(crc, local.stage_seconds);
    crc_value(crc, local.rdd_check_seconds);
  }
  return crc.value();
}

std::uint32_t dimsum_crc(bool exact, double gamma) {
  similarity::DimsumParams params;
  params.exact = exact;
  params.gamma = gamma;
  Crc32 crc;
  for (std::size_t s = 0; s < kSites; ++s) {
    std::vector<RecordStream> keys;
    for (const RecordStream& part : site_partitions(s)) {
      keys.push_back(combine(part));
    }
    const similarity::DimsumResult result =
        similarity::dimsum_jaccard(keys, params);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      for (std::size_t j = i; j < keys.size(); ++j) {
        crc_value(crc, result.matrix.get(i, j));
      }
    }
    crc_value(crc, result.pairs_examined);
    crc_value(crc, result.pairs_skipped);
  }
  return crc.value();
}

TEST(LocalStageGoldenTest, InputHasSharedAndDisjointRanges) {
  // The pins are only worth something if the input has both kinds of
  // pair: partitions whose key ranges touch or nest, and partitions
  // whose ranges are disjoint.
  std::size_t touching = 0;
  std::size_t disjoint = 0;
  for (std::size_t s = 0; s < kSites; ++s) {
    const auto parts = site_partitions(s);
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      touching += parts[i].back() == parts[i + 1].front();
      disjoint += parts[i].back() < parts[i + 1].front();
    }
  }
  EXPECT_GT(touching, 50u);
  EXPECT_GT(disjoint, 50u);
}

void expect_crc(std::uint32_t got, std::uint32_t want, const char* what) {
  EXPECT_EQ(got, want) << what << std::hex << ": actual crc32 0x" << got;
}

TEST(LocalStageGoldenTest, RunLocalStage) {
  expect_crc(local_stage_crc(1), 0x3da38edau, "1 executor");
  expect_crc(local_stage_crc(4), 0x8d07bfedu, "4 executors");
  expect_crc(local_stage_crc(7), 0x9c27d33cu, "7 executors");
}

TEST(LocalStageGoldenTest, DimsumJaccard) {
  expect_crc(dimsum_crc(false, 0.5), 0x1e309343u, "minhash, gamma 0.5");
  expect_crc(dimsum_crc(false, 4.0), 0xad262c0du, "minhash, gamma 4");
  expect_crc(dimsum_crc(true, 0.5), 0xc5bbf4acu, "exact, gamma 0.5");
  expect_crc(dimsum_crc(true, 4.0), 0xe764c281u, "exact, gamma 4");
}

}  // namespace
}  // namespace bohr::engine
