#include "engine/machine.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/combiner.h"
#include "similarity/kmeans.h"

namespace bohr::engine {

namespace {

std::vector<std::size_t> assign_round_robin(std::size_t n_partitions,
                                            std::size_t executors,
                                            bohr::Rng& rng) {
  // Spark places partitions on executors with no similarity awareness;
  // model that as a shuffled round-robin.
  std::vector<std::size_t> order(n_partitions);
  for (std::size_t p = 0; p < n_partitions; ++p) order[p] = p;
  rng.shuffle(order);
  std::vector<std::size_t> assignment(n_partitions);
  for (std::size_t rank = 0; rank < n_partitions; ++rank) {
    assignment[order[rank]] = rank % executors;
  }
  return assignment;
}

struct SimilarityAssignment {
  std::vector<std::size_t> executor_of_partition;
  std::uint64_t modeled_ops = 0;
};

/// `partition_keys[p]` holds partition p's distinct keys, sorted, the
/// key sets DIMSUM reads in place.
SimilarityAssignment assign_by_similarity(
    const std::vector<RecordStream>& partitions,
    const std::vector<RecordStream>& partition_keys, std::size_t executors,
    const similarity::DimsumParams& dimsum_params, double record_scale) {
  SimilarityAssignment out;
  const std::size_t n = partitions.size();
  std::uint64_t total_records = 0;
  for (const RecordStream& part : partitions) total_records += part.size();
  const similarity::DimsumResult sim =
      similarity::dimsum_jaccard(partition_keys, dimsum_params);

  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t p = 0; p < n; ++p) points.push_back(sim.matrix.row(p));
  similarity::KMeansParams km;
  km.k = executors;
  km.seed = dimsum_params.seed ^ 0xC1A5ULL;
  const similarity::KMeansResult clusters = similarity::kmeans(points, km);

  // Balance: raw k-means clusters can be badly size-skewed, and an
  // executor stuck with the biggest similarity family would dominate the
  // map stage. Keep clusters together where possible but spill a
  // cluster's overflow partitions to the least-loaded executor once an
  // executor exceeds its fair share (locality for the bulk, balance for
  // the tail).
  out.executor_of_partition.assign(n, 0);
  std::vector<double> load(executors, 0.0);
  double total_load = 0.0;
  for (const auto& part : partitions) {
    total_load += static_cast<double>(part.size());
  }
  const double fair_share =
      total_load / static_cast<double>(executors) * 1.25 + 1.0;
  // Group partitions by k-means cluster, biggest group first.
  std::vector<std::vector<std::size_t>> groups(executors);
  for (std::size_t p = 0; p < n; ++p) {
    groups[clusters.assignments[p] % executors].push_back(p);
  }
  std::sort(groups.begin(), groups.end(),
            [&](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (const auto& group : groups) {
    // Home executor: currently least loaded.
    std::size_t home = 0;
    for (std::size_t e = 1; e < executors; ++e) {
      if (load[e] < load[home]) home = e;
    }
    for (const std::size_t p : group) {
      std::size_t target = home;
      if (load[home] + static_cast<double>(partitions[p].size()) >
          fair_share) {
        for (std::size_t e = 0; e < executors; ++e) {
          if (load[e] < load[target]) target = e;
        }
      }
      out.executor_of_partition[p] = target;
      load[target] += static_cast<double>(partitions[p].size());
    }
  }
  // Modeled cost: a signature pass over the (physical) records, a
  // per-executor-centroid assignment pass (cost grows with executor
  // count, which is what Table 4 measures), examined-pair comparisons,
  // and k-means over the similarity matrix.
  out.modeled_ops =
      static_cast<std::uint64_t>(static_cast<double>(total_records) *
                                 record_scale *
                                 (1.0 + static_cast<double>(executors)) / 2.0) +
      sim.pairs_examined * dimsum_params.num_hashes +
      static_cast<std::uint64_t>(clusters.iterations) * n * executors * n;
  return out;
}

}  // namespace

void MachineConfig::validate() const {
  const auto reject = [](const std::string& why) {
    throw bohr::ContractViolation("invalid MachineConfig: " + why);
  };
  if (executors == 0) reject("executors must be positive");
  if (!(map_records_per_sec > 0.0)) {
    reject("map_records_per_sec must be positive");
  }
  if (!(merge_records_per_sec > 0.0)) {
    reject("merge_records_per_sec must be positive");
  }
  if (!(rdd_check_ops_per_sec > 0.0)) {
    reject("rdd_check_ops_per_sec must be positive");
  }
  if (!(record_scale >= 1.0)) reject("record_scale must be >= 1");
  if (!(straggler_probability >= 0.0 && straggler_probability <= 1.0)) {
    reject("straggler_probability must be in [0,1], got " +
           std::to_string(straggler_probability));
  }
  if (!(straggler_slowdown >= 1.0)) {
    reject("straggler_slowdown must be >= 1");
  }
  if (!(speculation_cap >= 1.0)) {
    reject("speculation_cap must be >= 1 (a cap below the median "
           "re-executes everything), got " +
           std::to_string(speculation_cap));
  }
}

LocalStageResult run_local_stage(
    const std::vector<RecordStream>& partitions, const MachineConfig& config,
    ExecutorAssignment assignment, double compute_multiplier,
    const similarity::DimsumParams& dimsum_params, bohr::Rng& rng) {
  config.validate();
  BOHR_EXPECTS(compute_multiplier > 0.0);

  LocalStageResult result;
  if (partitions.empty()) return result;

  // Each partition's distinct keys, once: its combined records, the keys
  // its executor holds, and its similarity signature. Partitions are
  // independent, so they combine in parallel.
  std::vector<RecordStream> partition_keys(partitions.size());
  parallel_for(partitions.size(), [&](std::size_t p) {
    partition_keys[p] = combine(partitions[p]);
  });

  if (assignment == ExecutorAssignment::SimilarityKMeans) {
    SimilarityAssignment sim =
        assign_by_similarity(partitions, partition_keys, config.executors,
                             dimsum_params, config.record_scale);
    result.executor_of_partition = std::move(sim.executor_of_partition);
    result.rdd_check_seconds = static_cast<double>(sim.modeled_ops) /
                               config.rdd_check_ops_per_sec;
  } else {
    result.executor_of_partition =
        assign_round_robin(partitions.size(), config.executors, rng);
  }

  // Per-executor map + per-partition combine; each executor's distinct
  // keys are its partitions' key lists, merged.
  std::vector<double> map_records(config.executors, 0.0);
  std::vector<RecordStream> executor_keys(config.executors);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const std::size_t e = result.executor_of_partition[p];
    BOHR_CHECK(e < config.executors);
    map_records[e] += static_cast<double>(partitions[p].size());
    result.shuffle_records += config.combiner_enabled
                                  ? partition_keys[p].size()
                                  : partitions[p].size();
    executor_keys[e].insert(executor_keys[e].end(), partition_keys[p].begin(),
                            partition_keys[p].end());
  }
  for (RecordStream& keys : executor_keys) keys = combine(keys);

  // Executor cost: map scan plus per-distinct-key aggregation state.
  // Similar partitions on one executor share keys, shrinking the state —
  // the Bohr-RDD mechanism. Shuffle volume is NOT affected (§8.3.3).
  std::vector<double> executor_time(config.executors, 0.0);
  for (std::size_t e = 0; e < config.executors; ++e) {
    const double map_t = map_records[e] * config.record_scale *
                         compute_multiplier / config.map_records_per_sec;
    const double merge_t = static_cast<double>(executor_keys[e].size()) *
                           config.record_scale /
                           config.merge_records_per_sec;
    executor_time[e] = map_t + merge_t;
  }

  // Straggler injection + speculative recovery.
  if (config.straggler_probability > 0.0) {
    BOHR_EXPECTS(config.straggler_slowdown >= 1.0);
    std::vector<double> healthy = executor_time;
    for (auto& t : executor_time) {
      if (rng.bernoulli(config.straggler_probability)) {
        t *= config.straggler_slowdown;
        ++result.stragglers;
      }
    }
    if (config.speculative_execution && result.stragglers > 0) {
      // Speculation caps a straggler at speculation_cap x the median
      // healthy executor (copy launched once the lag is detected).
      std::sort(healthy.begin(), healthy.end());
      const double median = healthy[healthy.size() / 2];
      const double cap = config.speculation_cap * median;
      for (std::size_t e = 0; e < config.executors; ++e) {
        if (executor_time[e] > cap) {
          executor_time[e] = std::max(cap, healthy[e < healthy.size() ? e : 0]);
          ++result.speculations;
        }
      }
    }
  }

  double slowest = 0.0;
  for (const double t : executor_time) slowest = std::max(slowest, t);

  // Diagnostic: keys resident on more than one executor (the duplicate
  // state similarity-aware assignment removes), sum_e |K_e| - |U_e K_e|.
  RecordStream held;
  for (const RecordStream& keys : executor_keys) {
    held.insert(held.end(), keys.begin(), keys.end());
  }
  result.exchanged_records = held.size() - combine(held).size();

  result.stage_seconds = result.rdd_check_seconds + slowest;
  return result;
}

}  // namespace bohr::engine
