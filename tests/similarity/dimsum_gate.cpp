// Times the local stage's similarity layer against its oracles on
// bulk_move-shaped partition keys, in one process, in two legs:
//   - dimsum: similarity::dimsum_jaccard against the score-every-pair
//     oracle (dimsum_oracle), on each stream's partition keys;
//   - kmeans: similarity::kmeans against the dense oracle
//     (kmeans_oracle), on the rows of each stream's DIMSUM matrix, with
//     the local stage's executor count and seed.
// Each leg fails unless both sides give the same bits (matrix cells and
// pair counts; assignments, iterations, inertia and centroids) and the
// code under test is at least its leg's minimum ratio faster. The two
// sides run in alternation, stream by stream, on the same host at one
// thread, so a slower or busier host moves both and their ratio stays
// put where an absolute time would drift.
//
//   dimsum_gate
//
// Prints one line per leg with both medians and the ratio. Exit status:
// 0 pass, 1 a check failed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "dimsum_oracle.h"
#include "engine/combiner.h"
#include "engine/partitioner.h"
#include "kmeans_oracle.h"
#include "similarity/dimsum.h"
#include "similarity/kmeans.h"

namespace {

using Family = std::vector<std::vector<std::uint64_t>>;
using bohr::similarity::DimsumResult;
using bohr::similarity::KMeansResult;

constexpr std::size_t kStreams = 120;
constexpr std::size_t kPartitionRecords = 24;
constexpr std::size_t kExecutors = 4;
constexpr int kReps = 9;
/// One (query, site) stream of bulk_move's largest fifth: its partition
/// count and its distinct keys.
struct TailStream {
  std::size_t partitions;
  std::size_t keys;
};
/// The largest fifth (96) of bulk_move's 484 (query, site) streams at
/// seed 1, one instance, one query pass, at 24 evenly spaced quantiles of
/// partition count; the last 24 streams take them. The other four fifths
/// have 42-120 partitions (median 100), as the first 96 streams' ~100
/// do. The tail holds about 70% of the n(n-1)/2 pairs and n^2 distances
/// that DIMSUM and k-means spend their time on, and the longer a stream,
/// the larger the share of each of its similarity rows that is zero
/// (EXPERIMENTS.md, "Host cost — per-site query work at the cost of its
/// data", stream shapes).
constexpr TailStream kTailStreams[] = {
    {120, 17},  {122, 17},  {124, 16},   {127, 17},  {130, 17},
    {140, 10},  {155, 12},  {172, 11},   {184, 650}, {189, 671},
    {195, 671}, {197, 983}, {201, 934},  {209, 634}, {216, 940},
    {222, 663}, {244, 16},  {265, 1018}, {286, 1171}, {313, 1221},
    {363, 762}, {439, 18},  {701, 1847}, {881, 1129}};
/// Over forty Release runs, dimsum_jaccard read 1.97-2.34x the oracle;
/// the same code with a branch per pair in its sampling pre-pass read
/// 1.57-1.78x over twenty (EXPERIMENTS.md, "Host cost — per-site query
/// work at the cost of its data").
constexpr double kMinDimsumRatio = 1.85;
/// Over forty runs, kmeans skipping zero blocks read 1.22-1.50x the
/// dense oracle; the same code with dense distances read 0.88-0.95x over
/// twenty.
constexpr double kMinKMeansRatio = 1.10;

/// One (query, site) map stream as bulk_move's engine sees it, cut by
/// CubeSorted into partitions of 24 records, each partition's distinct
/// keys. A body stream has about 2,400 records over 700 Zipf-ranked
/// hashed keys. A tail stream has 24 records a partition and exactly its
/// distinct keys: each once, then Zipf draws over them, which makes its
/// similarity rows denser than the measured stream's, not sparser.
Family stream_partition_keys(std::size_t stream) {
  constexpr std::size_t kBody = kStreams - std::size(kTailStreams);
  static const bohr::ZipfSampler body_zipf(700, 1.1);
  bohr::Rng rng(stream);
  std::vector<std::uint64_t> records;
  if (stream < kBody) {
    records.resize(2300 + rng.below(200));
    for (auto& key : records) key = bohr::mix64(body_zipf.sample(rng) + 1);
  } else {
    const TailStream tail = kTailStreams[stream - kBody];
    const bohr::ZipfSampler zipf(tail.keys, 1.1);
    records.resize(kPartitionRecords * tail.partitions);
    for (std::size_t r = 0; r < records.size(); ++r) {
      records[r] = bohr::mix64((r < tail.keys ? r : zipf.sample(rng)) + 1);
    }
  }
  Family keys;
  for (const auto& part : bohr::engine::make_partitions(
           records, kPartitionRecords,
           bohr::engine::PartitionPolicy::CubeSorted)) {
    keys.push_back(bohr::engine::combine(part));
  }
  return keys;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Cells and counts that differ between two results over one family.
std::size_t differences(const DimsumResult& got, const DimsumResult& want) {
  std::size_t differ = (got.pairs_examined != want.pairs_examined) +
                       (got.pairs_skipped != want.pairs_skipped);
  const std::size_t n = want.matrix.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      differ += bits(got.matrix.get(i, j)) != bits(want.matrix.get(i, j));
    }
  }
  return differ;
}

/// Assignments, centroid values and scalars that differ between two
/// clusterings of one stream's rows.
std::size_t differences(const KMeansResult& got, const KMeansResult& want) {
  std::size_t differ = (got.assignments != want.assignments) +
                       (got.iterations != want.iterations) +
                       (bits(got.inertia) != bits(want.inertia)) +
                       (got.centroids.size() != want.centroids.size());
  const std::size_t k = std::min(got.centroids.size(), want.centroids.size());
  for (std::size_t c = 0; c < k; ++c) {
    const std::vector<double>& g = got.centroids[c];
    const std::vector<double>& w = want.centroids[c];
    differ += g.size() != w.size();
    for (std::size_t d = 0; d < std::min(g.size(), w.size()); ++d) {
      differ += bits(g[d]) != bits(w[d]);
    }
  }
  return differ;
}

struct Medians {
  double tested_s = 0.0;
  double oracle_s = 0.0;
};

/// kReps passes over every stream, calling tested(s) and oracle(s) in
/// alternation. Which goes first alternates by stream and by pass, so a
/// change in host speed lands on both and neither always finds the
/// stream's data in cache. Returns each side's median pass time.
template <typename Tested, typename Oracle>
Medians time_alternating(const Tested& tested, const Oracle& oracle) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<double> tested_s;
  std::vector<double> oracle_s;
  for (int r = 0; r < kReps; ++r) {
    double tested_pass = 0.0;
    double oracle_pass = 0.0;
    for (std::size_t s = 0; s < kStreams; ++s) {
      if ((r + s) % 2 == 0) {
        oracle_pass += seconds([&] { oracle(s); });
        tested_pass += seconds([&] { tested(s); });
      } else {
        tested_pass += seconds([&] { tested(s); });
        oracle_pass += seconds([&] { oracle(s); });
      }
    }
    tested_s.push_back(tested_pass);
    oracle_s.push_back(oracle_pass);
  }
  return {bohr::percentile(tested_s, 50), bohr::percentile(oracle_s, 50)};
}

/// Prints one leg's line; returns whether it passed.
bool report(const char* leg, const char* work, std::uint64_t work_count,
            const Medians& medians, double min_ratio, std::size_t differ) {
  const double ratio = medians.oracle_s / medians.tested_s;
  std::printf(
      "dimsum_gate: leg=%s streams=%zu %s=%llu reps=%d tested_ms=%.3f "
      "oracle_ms=%.3f ratio=%.2f min_ratio=%.2f differing=%zu\n",
      leg, kStreams, work, static_cast<unsigned long long>(work_count),
      kReps, medians.tested_s * 1e3, medians.oracle_s * 1e3, ratio,
      min_ratio, differ);
  bool pass = true;
  if (differ > 0) {
    std::fprintf(stderr, "FAIL: %s: %zu values differ from the oracle\n",
                 leg, differ);
    pass = false;
  }
  if (ratio < min_ratio) {
    std::fprintf(stderr, "FAIL: %s runs at %.2fx the oracle's speed, "
                         "below %.2fx\n", leg, ratio, min_ratio);
    pass = false;
  }
  return pass;
}

int run() {
  bohr::set_thread_count(1);
  std::vector<Family> streams;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(stream_partition_keys(s));
  }
  const bohr::similarity::DimsumParams params;

  std::vector<DimsumResult> sims(
      kStreams, DimsumResult{bohr::similarity::SimilarityMatrix(0), 0, 0});
  std::vector<DimsumResult> sim_oracles = sims;
  const Medians dimsum = time_alternating(
      [&](std::size_t s) {
        sims[s] = bohr::similarity::dimsum_jaccard(streams[s], params);
      },
      [&](std::size_t s) {
        sim_oracles[s] =
            bohr::similarity::oracle::dimsum_jaccard(streams[s], params);
      });
  std::size_t dimsum_differ = 0;
  std::uint64_t examined = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    dimsum_differ += differences(sims[s], sim_oracles[s]);
    examined += sim_oracles[s].pairs_examined;
  }

  // The local stage's clustering of each stream's similarity rows.
  bohr::similarity::KMeansParams km;
  km.k = kExecutors;
  km.seed = params.seed ^ 0xC1A5ULL;
  std::vector<KMeansResult> clusters(kStreams);
  std::vector<KMeansResult> cluster_oracles(kStreams);
  const Medians kmeans = time_alternating(
      [&](std::size_t s) {
        clusters[s] = bohr::similarity::kmeans(sims[s].matrix.rows(), km);
      },
      [&](std::size_t s) {
        cluster_oracles[s] =
            bohr::similarity::oracle::kmeans(sims[s].matrix.rows(), km);
      });
  std::size_t kmeans_differ = 0;
  std::uint64_t points = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    kmeans_differ += differences(clusters[s], cluster_oracles[s]);
    points += sims[s].matrix.size();
  }

  const bool dimsum_pass = report("dimsum", "examined", examined, dimsum,
                                  kMinDimsumRatio, dimsum_differ);
  const bool kmeans_pass = report("kmeans", "points", points, kmeans,
                                  kMinKMeansRatio, kmeans_differ);
  return dimsum_pass && kmeans_pass ? 0 : 1;
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
