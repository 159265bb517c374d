// Times similarity::dimsum_jaccard against the score-every-pair oracle
// (dimsum_oracle) on bulk_move-shaped partition keys, in one process,
// and fails unless both give the same matrix bits and pair counts and
// dimsum_jaccard is at least kMinRatio times faster. The two sides run
// in alternation, stream by stream, on the same host at one thread, so
// a slower or busier host moves both and their ratio stays put where an
// absolute time would drift.
//
//   dimsum_gate
//
// Prints one line with both medians and the ratio. Exit status: 0 pass,
// 1 a check failed.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "dimsum_oracle.h"
#include "engine/combiner.h"
#include "engine/partitioner.h"
#include "similarity/dimsum.h"

namespace {

using Family = std::vector<std::vector<std::uint64_t>>;

constexpr std::size_t kStreams = 120;
constexpr std::size_t kPartitionRecords = 24;
constexpr int kReps = 9;
/// Over twenty Release runs, leaving disjoint key ranges unscored read
/// 1.30-1.52x; the same code scoring every examined pair read 0.83-0.93x
/// (EXPERIMENTS.md, "Host cost — DIMSUM scores only overlapping key
/// ranges").
constexpr double kMinRatio = 1.15;

/// One (query, site) map stream as bulk_move's engine sees it: about
/// 2,400 records over 700 Zipf-ranked hashed keys, cut by CubeSorted
/// into partitions of 24 records, each partition's distinct keys.
Family stream_partition_keys(std::size_t stream) {
  static const bohr::ZipfSampler zipf(700, 1.1);
  bohr::Rng rng(stream);
  std::vector<std::uint64_t> records(2300 + rng.below(200));
  for (auto& key : records) key = bohr::mix64(zipf.sample(rng) + 1);
  Family keys;
  for (const auto& part : bohr::engine::make_partitions(
           records, kPartitionRecords,
           bohr::engine::PartitionPolicy::CubeSorted)) {
    keys.push_back(bohr::engine::combine(part));
  }
  return keys;
}

/// Cells and counts that differ between two results over one family.
std::size_t differences(const bohr::similarity::DimsumResult& got,
                        const bohr::similarity::DimsumResult& want) {
  std::size_t differ = (got.pairs_examined != want.pairs_examined) +
                       (got.pairs_skipped != want.pairs_skipped);
  const std::size_t n = want.matrix.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      differ += std::bit_cast<std::uint64_t>(got.matrix.get(i, j)) !=
                std::bit_cast<std::uint64_t>(want.matrix.get(i, j));
    }
  }
  return differ;
}

int run() {
  bohr::set_thread_count(1);
  std::vector<Family> streams;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(stream_partition_keys(s));
  }
  const bohr::similarity::DimsumParams params;
  std::vector<double> dimsum_s;
  std::vector<double> oracle_s;
  std::vector<bohr::similarity::DimsumResult> got(
      kStreams, bohr::similarity::DimsumResult{
                    bohr::similarity::SimilarityMatrix(0), 0, 0});
  std::vector<bohr::similarity::DimsumResult> want = got;
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (int r = 0; r < kReps; ++r) {
    double dimsum = 0.0;
    double oracle = 0.0;
    // The sides alternate stream by stream, and which goes first
    // alternates too, so a change in host speed lands on both and
    // neither always finds the stream's keys in cache.
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto run_oracle = [&] {
        oracle += seconds([&] {
          want[s] =
              bohr::similarity::oracle::dimsum_jaccard(streams[s], params);
        });
      };
      const auto run_dimsum = [&] {
        dimsum += seconds([&] {
          got[s] = bohr::similarity::dimsum_jaccard(streams[s], params);
        });
      };
      if ((r + s) % 2 == 0) {
        run_oracle();
        run_dimsum();
      } else {
        run_dimsum();
        run_oracle();
      }
    }
    oracle_s.push_back(oracle);
    dimsum_s.push_back(dimsum);
  }

  std::size_t differ = 0;
  std::uint64_t examined = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    differ += differences(got[s], want[s]);
    examined += want[s].pairs_examined;
  }
  const double dimsum = bohr::percentile(dimsum_s, 50);
  const double oracle = bohr::percentile(oracle_s, 50);
  const double ratio = oracle / dimsum;
  std::printf(
      "dimsum_gate: streams=%zu examined=%llu reps=%d dimsum_ms=%.3f "
      "oracle_ms=%.3f ratio=%.2f min_ratio=%.2f differing=%zu\n",
      kStreams, static_cast<unsigned long long>(examined), kReps,
      dimsum * 1e3, oracle * 1e3, ratio, kMinRatio, differ);
  if (differ > 0) {
    std::fprintf(stderr, "FAIL: %zu cells or counts differ from the oracle\n",
                 differ);
    return 1;
  }
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "FAIL: dimsum_jaccard is %.2fx the oracle's speed, "
                         "below %.2fx\n", ratio, kMinRatio);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
