// Executes one geo-distributed query: per-site map/combine (machine
// model), WAN all-to-all shuffle (flow model), and reduce, returning the
// query completion time and per-site shuffle volumes.
#pragma once

#include <limits>
#include <vector>

#include "common/rng.h"
#include "engine/machine.h"
#include "engine/partitioner.h"
#include "engine/query.h"
#include "net/faults.h"
#include "net/topology.h"

namespace bohr::engine {

struct JobConfig {
  MachineConfig machine;
  std::size_t partition_records = 4096;
  PartitionPolicy partition_policy = PartitionPolicy::ArrivalOrder;
  ExecutorAssignment executor_assignment = ExecutorAssignment::RoundRobin;
  similarity::DimsumParams dimsum;
  double reduce_records_per_sec = 5.0e8;
  /// Query-time controller overhead added to QCT (LP solving for the
  /// joint strategies; §8.5 includes it in QCT).
  double controller_overhead_seconds = 0.0;
  /// Optional WAN fault model for the shuffle (not owned; the shuffle
  /// clock starts at 0 when the first map finishes feeding it). Null or
  /// WAN-quiet plans take the pristine simulator path. Shuffle flows cut
  /// by an outage retry after recovery; retry and backoff time lands in
  /// QCT via the flows' finish times. The plan's slow-site windows
  /// stretch reduce work at the covered sites (evaluated on the same
  /// phase-local clock).
  const net::FaultPlan* faults = nullptr;
  /// Optional bucket-granular reduce placement (not owned). When set,
  /// per-site reduce fractions are derived from bucket ownership
  /// (overriding the `reduce_fractions` argument's granularity) and the
  /// reduce stage runs bucket by bucket, which enables bucket-level
  /// speculation below. Null keeps the historical fraction-based path
  /// bit for bit.
  const ReduceBucketMap* reduce_buckets = nullptr;
  /// Speculative re-execution at reduce-bucket granularity: a bucket
  /// whose native completion (on a slowed site) would exceed
  /// `bucket_speculation_cap` x the slowest-healthy-site estimate for
  /// that bucket is re-launched there and capped at the estimate.
  bool bucket_speculation = false;
  double bucket_speculation_cap = 1.5;
  /// Phase-local reduce deadline (seconds on the job clock). When
  /// finite, the reduce round CLOSES at the deadline: buckets (bucket
  /// mode) or per-site record shares (fraction mode) that cannot finish
  /// by then are dropped — counted in JobResult, never silently — and
  /// every site's reduce finish is capped at the deadline, bounding
  /// QCT. The default (infinity) keeps the historical path bit for bit.
  double reduce_deadline_seconds =
      std::numeric_limits<double>::infinity();
};

struct SiteJobMetrics {
  std::size_t input_records = 0;
  std::size_t shuffle_records = 0;  ///< combined map output at the site
  double shuffle_bytes = 0.0;       ///< f_i of Eq. 1, in bytes
  double map_finish_seconds = 0.0;
  double shuffle_finish_seconds = 0.0;
  double reduce_finish_seconds = 0.0;
  std::size_t exchanged_records = 0;
  double rdd_check_seconds = 0.0;
};

struct JobResult {
  double qct_seconds = 0.0;
  double shuffle_seconds = 0.0;  ///< slowest shuffle minus slowest map
  std::vector<SiteJobMetrics> sites;

  /// Bytes actually crossing the WAN given the reduce placement used.
  double wan_shuffle_bytes = 0.0;
  /// Fault accounting for the shuffle (0 on the pristine path).
  std::size_t shuffle_interruptions = 0;
  std::size_t shuffle_retries = 0;
  /// Shuffle flows abandoned after max retries: the reduce ran with
  /// incomplete input — recorded, never silently dropped.
  std::size_t shuffle_flows_failed = 0;
  /// Reduce buckets speculatively re-executed on a healthy site (0
  /// unless bucket-granular reduce + speculation are enabled).
  std::size_t reduce_speculations = 0;
  /// Largest compute slowdown any reduce site ran under (1 = none).
  double max_reduce_slowdown = 1.0;
  /// Partial close-out bookkeeping (reduce_deadline_seconds finite
  /// only): whether the round closed with work left, how many whole
  /// buckets were dropped (bucket mode), and the record-weighted share
  /// of reduce work not done by the deadline.
  bool reduce_partial = false;
  std::size_t reduce_buckets_dropped = 0;
  double reduce_dropped_fraction = 0.0;
};

/// Whether run_job draws from its `rng` under `config`. Round-robin
/// executor assignment shuffles partitions with it and stragglers draw
/// per executor; any other run is a function of its inputs alone, so
/// callers may cache its result or run it beside other jobs.
bool consumes_rng(const JobConfig& config);

/// `site_inputs[i]` holds the already-mapped key stream at site i
/// (selectivity applied by the caller). `reduce_fractions` must sum to 1.
JobResult run_job(const net::WanTopology& topo,
                  const std::vector<RecordStream>& site_inputs,
                  const std::vector<double>& reduce_fractions,
                  const QuerySpec& spec, const JobConfig& config,
                  bohr::Rng& rng);

}  // namespace bohr::engine
